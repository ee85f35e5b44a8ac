"""Reference comm-aware refinement: the quadratic hill-climb.

Verbatim copy of ``comm_aware_refinement_scalar``, the original walk
that shipped in :mod:`repro.core.comm_aware` until v1.15.  It evaluates
the full objective once per candidate move, where the production
hill-climb keeps cached per-device terms and takes exclusive running
maxima.  The equivalence suite calls it on valid inputs only and
requires equal allocations.
"""

from __future__ import annotations

import math

from repro.core.comm_aware import predicted_iteration_time
from repro.core.fpm import as_speed_function
from repro.util.validation import check_nonnegative


def comm_aware_refinement_scalar(
    models,
    allocation: list[int],
    beta: float,
    max_moves: int = 10_000,
) -> list[int]:
    """Reference oracle for
    :func:`repro.core.comm_aware.comm_aware_refinement`: the original
    quadratic hill-climb, one full objective evaluation per candidate
    move.  Deliberately untouched by the vectorisation — the equivalence
    test holds the two bit-identical on every input.
    """
    fns = [as_speed_function(m) for m in models]
    if len(fns) != len(allocation):
        raise ValueError(
            f"{len(fns)} models but {len(allocation)} allocations"
        )
    check_nonnegative("beta", beta)
    caps = [fn.max_size if fn.bounded else math.inf for fn in fns]
    alloc = [int(a) for a in allocation]
    current = predicted_iteration_time(fns, alloc, beta)
    for _ in range(max_moves):
        best_trial = None
        best_value = current
        # donors: the compute straggler and the comm leader(s)
        compute_times = [
            fn.time(a) if a > 0 else 0.0 for fn, a in zip(fns, alloc)
        ]
        donors = set()
        donors.add(max(range(len(alloc)), key=lambda i: compute_times[i]))
        donors.add(max(range(len(alloc)), key=lambda i: alloc[i]))
        for donor in donors:
            if alloc[donor] == 0:
                continue
            for receiver in range(len(alloc)):
                if receiver == donor or alloc[receiver] + 1 > caps[receiver]:
                    continue
                trial = list(alloc)
                trial[donor] -= 1
                trial[receiver] += 1
                value = predicted_iteration_time(fns, trial, beta)
                if value < best_value * (1.0 - 1e-12):
                    best_trial, best_value = trial, value
        if best_trial is None:
            break
        alloc, current = best_trial, best_value
    return alloc
