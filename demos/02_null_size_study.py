"""
Empirical size under the MCAR null
==================================

When the data really are MCAR, a level-0.05 test should reject about 5%
of the time.  This study sweeps the missingness probability and checks
that both tests hold their size on standard normal data.
"""

from pathlib import Path

from mcartest import DistributionSpec, MechanismSpec, Scenario, results_to_csv, run_grid
from mcartest.plotting import render_rate_chart

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

# one complete and two incomplete variables, the smallest interesting case
scenario = Scenario(
    label="1X2Y",
    distribution=DistributionSpec(kind="std_normal", dim=3),
    p=1,
    q=2,
    n=100,
    mechanism=MechanismSpec(kind="mcar", miss_prob=0.03),
    tests=("an", "d2"),
    replications=400,       # raise for smoother curves
    alpha=0.05,
    master_seed=20260815,
)

# the study grid used throughout: 0.03 to 0.24 in steps of 0.03
grid = [round(0.03 * k, 2) for k in range(1, 9)]
cells = run_grid(scenario, {"miss_prob": grid}, workers=4)

for cell in cells:
    mp = cell.scenario.mechanism.miss_prob
    an = cell.per_test["an"]
    d2 = cell.per_test["d2_general"]
    print(f"miss_prob={mp:0.2f}  an rate={an.rate:.3f} "
          f"[{an.ci_low:.3f},{an.ci_high:.3f}]  d2 rate={d2.rate:.3f} "
          f"degenerate an={an.degenerate}")

# persist and draw; the dashed line in the chart marks the nominal 0.05
results_csv = out_dir / "null_size.csv"
results_to_csv(cells, results_csv)

import csv

with open(results_csv, newline="") as fh:
    rows = list(csv.DictReader(fh))
render_rate_chart(rows, out_dir / "null_size.svg", alpha=0.05)
print(f"wrote {results_csv} and {out_dir / 'null_size.svg'}")
