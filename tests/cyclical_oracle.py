"""Reference for `otlab.transport.check_cyclical_monotonicity`.

`cyclical_violations` is the per-trial loop the check ran before it
evaluated every drawn tuple in one batch: the same seeded draws, one
`cost_eval` call per tuple.  Its violation lists are the reference the
batched check must reproduce entry for entry and bit for bit.
"""
from __future__ import annotations

import numpy as np

from otlab.costs import cost_eval


def cyclical_violations(plan, spec, n_tuple: int, trials: int, seed: int) -> list:
    k = plan.n_entries
    if k < n_tuple:
        return []
    rng = np.random.default_rng(seed)
    x, y = plan.pairs()
    direct_all = np.asarray(cost_eval(spec, x - y))
    violations = []
    for _ in range(trials):
        sel = rng.choice(k, size=n_tuple, replace=False)
        direct = direct_all[sel].sum()
        shifted = cost_eval(spec, x[sel] - y[np.roll(sel, -1)]).sum()
        defect = direct - shifted
        if defect > 1e-9:
            violations.append({"entries": sel.tolist(), "defect": float(defect)})
    return violations
