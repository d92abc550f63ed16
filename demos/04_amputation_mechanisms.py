"""
Four ways to lose data
======================

The same fully observed sample amputated under each mechanism, showing
how the missingness pattern relates to the control column.  MCAR ignores
the data; the three MAR variants tie missingness to the complete column
in different ways.
"""

import numpy as np

from mcartest import (
    ColumnRoles,
    DistributionSpec,
    MechanismSpec,
    apply_mechanism,
    generate,
    pattern_names,
    rng_stream,
)

n = 4000
roles = ColumnRoles((0,), (1,))
normal = DistributionSpec(kind="std_normal", dim=2)
full = generate(normal, n, rng_stream(7, 0), pattern_names(1, 1))
control = full.values[:, 0]


def report(stream, **spec):
    """Amputate ``full`` under ``spec`` and print where the holes fall."""
    ds = apply_mechanism(full, roles, MechanismSpec(**spec), rng_stream(7, stream))
    name = spec["kind"]
    missing = ~ds.mask[:, 1]
    frac = missing.mean()
    # where do the missing cells sit relative to the control median?
    above = (control > np.median(control))[missing].mean() if missing.any() else 0.0
    print(f"{name:12s} missing {frac:6.3f}   of which above median {above:5.2f}")


# MCAR: every cell equally likely to vanish, half the holes above median
report(1, kind="mcar", miss_prob=0.15)

# MAR 1-to-9: high-control rows lose their pair nine times more often
report(2, kind="mar_1_to_x", miss_prob=0.15, odds=9.0)

# MAR rank: selection weight proportional to the control's rank, and the
# number of missing cells is exactly round(n * p) every time
report(3, kind="mar_rank", miss_prob=0.15)

# MAR mean: two flat rates split at the control mean
report(4, kind="mar_mean", controls=(0,), p_high=(0.25,), p_low=(0.05,))

# generators are not limited to normal data: a Clayton copula with
# exponential margins gives dependent, heavy-tailed columns
spec = DistributionSpec(kind="clayton", dim=2, theta=1.0, margins=("exp1", "exp1"))
clay = generate(spec, n, rng_stream(7, 5), pattern_names(1, 1))
print(f"clayton sample means {clay.values.mean(axis=0).round(3)} (Exp(1) margins)")
