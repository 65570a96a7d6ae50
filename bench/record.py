"""Record the reference outputs of the benchmark's instance pool.

    python3 bench/record.py --size full --workload chain

Runs every instance seed of the pool untraced and writes its outputs to
``bench/reference.json``, keeping the records of other sizes and
workloads.  Recording is only for a commit whose outputs are known good:
the benchmark checks every later run against these values.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--workload", choices=run.WORKLOADS, required=True)
    args = ap.parse_args(argv)
    run._import_otlab()
    import reference
    import workloads

    spec = workloads.cost_of(args.workload)
    records = {}
    for inst in range(run.POOL):
        out = workloads.RUNNERS[args.workload](
            workloads.make_inputs(args.workload, inst, args.size), spec)
        records[str(inst)] = reference.as_record(out)
        print(args.workload, inst, records[str(inst)], flush=True)
    # read only now, so records another recording wrote meanwhile are kept
    try:
        data = json.loads(reference.REFERENCE_PATH.read_text())
    except FileNotFoundError:
        data = {}
    data.setdefault(args.size, {})[args.workload] = records
    reference.REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
