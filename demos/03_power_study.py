"""
Power against a MAR alternative
===============================

Under MAR 1-to-9 missingness (cells above the control median are nine
times more likely to vanish) the MCAR hypothesis is false, so rejection
rates now measure power.  The quadratic-form test tends to beat Little's
d2 here, and both improve as the missingness probability grows.
"""

import csv
from pathlib import Path

from mcartest import DistributionSpec, MechanismSpec, Scenario, results_to_csv, run_grid
from mcartest.plotting import render_rate_chart

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

scenario = Scenario(
    label="1X2Y",
    distribution=DistributionSpec(kind="std_normal", dim=3),
    p=1,
    q=2,
    n=100,
    mechanism=MechanismSpec(kind="mar_1_to_x", miss_prob=0.06, odds=9.0),
    tests=("an", "d2"),
    replications=300,
    alpha=0.05,
    master_seed=31337,
)

cells = run_grid(scenario, {"miss_prob": [0.06, 0.12, 0.18, 0.24]}, workers=4)

print("miss_prob   an power   d2 power")
for cell in cells:
    mp = cell.scenario.mechanism.miss_prob
    print(f"{mp:9.2f}   {cell.per_test['an'].rate:8.3f}   "
          f"{cell.per_test['d2_general'].rate:8.3f}")

results_csv = out_dir / "mar_power.csv"
results_to_csv(cells, results_csv)
with open(results_csv, newline="") as fh:
    rows = list(csv.DictReader(fh))
render_rate_chart(rows, out_dir / "mar_power.svg", alpha=0.05)
print(f"wrote {results_csv} and {out_dir / 'mar_power.svg'}")

# the same study is one CLI call:
#   mcartest simulate --n 100 --p 1 --q 2 --mechanism mar_1_to_x \
#       --sweep-miss 0.06,0.12,0.18,0.24 --replications 300 \
#       --seed 31337 --out mar_power.csv
#   mcartest plot --input mar_power.csv --out mar_power.svg
