"""
Range operators from bound histograms
=====================================

A range column is summarized by statistics over its lower bounds and its
upper bounds, plus fractions of null rows and empty ranges.  Each bound's
statistics count an infinite bound as a null, so their null fraction is
that bound's infinite share.  Each positional operator (strictly
left/right, no-extend, overlaps) reduces to a scalar inequality between
one bound of each side.
"""

from ineqsel import (
    RangeOp,
    analyze_range_column,
    exact_range_join,
    generate_range_column,
    range_join_selectivity,
)

xs = generate_range_column(4000, seed=7)
ys = generate_range_column(4000, seed=8)

sx = analyze_range_column(xs, statistics_target=50, sample_cap=len(xs))
sy = analyze_range_column(ys, statistics_target=50, sample_cap=len(ys))

print("column x:",
      f"null={sx.null_frac:.3f} empty={sx.empty_frac:.3f}",
      f"inf-lower={sx.lower_stats.null_frac:.3f} inf-upper={sx.upper_stats.null_frac:.3f}")
print("column y:",
      f"null={sy.null_frac:.3f} empty={sy.empty_frac:.3f}",
      f"inf-lower={sy.lower_stats.null_frac:.3f} inf-upper={sy.upper_stats.null_frac:.3f}")
print("(each infinite share is the null fraction of that bound's statistics)")
print()

print(f"{'operator':>16}  {'estimate':>9}  {'exact':>9}  {'abs err':>9}")
for op in RangeOp:
    est = range_join_selectivity(sx, sy, op)
    exact = exact_range_join(xs, ys, op).selectivity
    print(f"{op.value:>16}  {est:9.5f}  {exact:9.5f}  {abs(est - exact):9.6f}")

# strictly-left + strictly-right + overlaps covers every positioned pair,
# so the three estimates account for the non-null, non-empty mass
mass = sum(
    range_join_selectivity(sx, sy, op)
    for op in (RangeOp.STRICTLY_LEFT, RangeOp.STRICTLY_RIGHT, RangeOp.OVERLAPS)
)
both_positioned = (
    (1 - sx.null_frac) * (1 - sx.empty_frac) * (1 - sy.null_frac) * (1 - sy.empty_frac)
)
print(f"\n<< + >> + && = {mass:.6f}   (non-null, non-empty mass = {both_positioned:.6f})")
