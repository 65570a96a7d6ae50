"""Reference for `otlab.transport.check_cyclical_monotonicity`.

`cyclical_violations` is a per-trial loop: trial t draws d_s uniformly
on [0, k - s) for s = 0 ... n_tuple - 1 from one `default_rng(seed)`
and pops the d_s-th index still left in `list(range(k))`, then costs
its tuple with one `cost_eval` call.  Its violation lists are the
reference the batched check must reproduce entry for entry and bit for
bit.
"""
from __future__ import annotations

import numpy as np

from otlab.costs import cost_eval


def popped_tuples(k: int, n_tuple: int, trials: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(trials):
        left = list(range(k))
        rows.append([left.pop(d) for d in rng.integers(0, k - np.arange(n_tuple))])
    return np.array(rows, dtype=np.int64).reshape(trials, n_tuple)


def cyclical_violations(plan, spec, n_tuple: int, trials: int, seed: int) -> list:
    k = plan.n_entries
    if k < n_tuple:
        return []
    x, y = plan.pairs()
    direct_all = np.asarray(cost_eval(spec, x - y))
    violations = []
    for sel in popped_tuples(k, n_tuple, trials, seed):
        direct = direct_all[sel].sum()
        shifted = cost_eval(spec, x[sel] - y[np.roll(sel, -1)]).sum()
        defect = direct - shifted
        if defect > 1e-9:
            violations.append({"entries": sel.tolist(), "defect": float(defect)})
    return violations
