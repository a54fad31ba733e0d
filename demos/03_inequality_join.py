"""
Join selectivity for inequality predicates
==========================================

Estimate what fraction of the Cartesian product of two columns satisfies
x < y, using only the columns' histograms: integrate one side's CDF
against the other side's density with one trapezoid sum over the merged
bin boundaries.  It costs O(bins) and needs no data rescan.
"""

import numpy as np

from ineqsel import ScalarOp, analyze_column, exact_join, join_selectivity

# the twelve-value example columns
xs = [10, 11, 12, 20, 21, 22, 24, 25, 30, 35, 38, 45]
ys = [15, 16, 17, 20, 30, 35, 38, 39, 40, 42, 45, 50]

sx = analyze_column(xs, statistics_target=3)
sy = analyze_column(ys, statistics_target=3)
print("histogram of x:", sx.histogram.bounds.tolist())
print("histogram of y:", sy.histogram.bounds.tolist())

est = join_selectivity(sx, sy, ScalarOp.LT)
exact = exact_join(xs, ys, ScalarOp.LT)
print(f"\nP(x < y) estimate : {est:.6f}  -> {est * exact.total:.1f} of {exact.total} pairs")
print(f"P(x < y) exact    : {exact.selectivity:.6f}  -> {exact.qualifying} pairs")

# Useful identities: GE complements LT, GT is LT with sides swapped.
print(f"\nLT + GE = {join_selectivity(sx, sy, ScalarOp.LT) + join_selectivity(sx, sy, ScalarOp.GE):.6f}")
print(f"GT(x,y) = {join_selectivity(sx, sy, ScalarOp.GT):.6f}")
print(f"LT(y,x) = {join_selectivity(sy, sx, ScalarOp.LT):.6f}")

# On larger random data the estimate tightens as the histograms grow.
rng = np.random.default_rng(0)
big_x = rng.normal(500, 150, size=20_000)
big_y = rng.normal(520, 140, size=20_000)
exact_big = exact_join(big_x, big_y, ScalarOp.LT).selectivity
print(f"\n20000 x 20000 normal data, exact = {exact_big:.6f}")
for target in (5, 20, 100, 500):
    sx = analyze_column(big_x, target, sample_cap=len(big_x))
    sy = analyze_column(big_y, target, sample_cap=len(big_y))
    est = join_selectivity(sx, sy, ScalarOp.LT)
    print(f"  target {target:4d}: estimate = {est:.6f}   abs error = {abs(est - exact_big):.2e}")
