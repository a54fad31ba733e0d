"""
Estimation error versus histogram resolution
============================================

Generate two mixed range columns of about 20000 rows, then sweep the
statistics target from 100 to 1000 bins for the strictly-left join.  The
estimate is compared against the exact pair count at every step; the
error falls steeply as the histograms grow while estimation stays in the
millisecond range.  Writes error_vs_bins.csv (and a log-scale plot when
matplotlib is available) into the working directory.
"""

import tempfile
from pathlib import Path

from ineqsel import RangeOp, generate_range_column, run_sweep, write_results_csv
from ineqsel.harness import write_range_column

# the column files live only as long as the sweep that reads them
with tempfile.TemporaryDirectory(prefix="ineqsel-demo-") as workdir:
    fx, fy = Path(workdir) / "x.col", Path(workdir) / "y.col"
    write_range_column(fx, generate_range_column(20390, seed=1))
    write_range_column(fy, generate_range_column(20060, seed=2))
    rows = run_sweep(fx, fy, RangeOp.STRICTLY_LEFT, targets=range(100, 1001, 100))

print(f"{'bins':>5}  {'estimate':>10}  {'exact':>10}  {'error':>10}  {'est ms':>7}  {'build ms':>9}")
for r in rows:
    print(
        f"{r.statistics_target:5d}  {r.estimate:10.6f}  {r.exact:10.6f}"
        f"  {r.error:10.2e}  {r.est_time_us / 1000:7.2f}  {r.build_time_us / 1000:9.1f}"
    )

out_csv = Path("error_vs_bins.csv")
write_results_csv(rows, out_csv)
print(f"\nwrote {out_csv}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
else:
    targets = [r.statistics_target for r in rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(targets, [max(r.error, 1e-12) for r in rows], marker="o")
    ax.set_xlabel("histogram bins (statistics target)")
    ax.set_ylabel("|estimate - exact| / Cartesian product")
    ax.set_title("Join selectivity error vs histogram resolution")
    ax.grid(True, which="both", alpha=0.3)
    fig.tight_layout()
    fig.savefig("error_vs_bins.png", dpi=120)
    print("wrote error_vs_bins.png")
