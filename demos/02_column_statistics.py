"""
Column statistics: nulls, most common values, histogram
=======================================================

Analyze a skewed column with missing values.  Each row lands in exactly
one partition: it is null, one of the most common values, or covered by
the histogram over the remainder.  Restriction estimates combine the
three partitions and are compared with exact counts.
"""

import numpy as np

from ineqsel import ScalarOp, analyze_column, exact_join, restriction_selectivity, save_stats

rng = np.random.default_rng(42)

# 10% nulls, heavy repetition of a few values, uniform noise elsewhere
n = 5000
values = rng.integers(0, 1000, size=n).astype(float)
hot = rng.random(n) < 0.35
values[hot] = rng.choice([100.0, 250.0, 700.0], size=int(hot.sum()))
values[rng.random(n) < 0.10] = np.nan

stats = analyze_column(values, statistics_target=10, sample_seed=0, sample_cap=n)

print(f"null fraction      : {stats.null_frac:.4f}")
print(f"MCV entries        : {list(zip(stats.mcv.values.tolist(), np.round(stats.mcv.fractions, 4).tolist()))}")
print(f"MCV covered share  : {stats.mcv.total_fraction:.4f} of non-null rows")
print(f"histogram bins     : {stats.histogram.bin_count}")
print()

print(f"{'predicate':>16}  {'estimate':>9}  {'exact':>9}  {'abs err':>8}")
for c in (50, 100, 250, 500, 700, 900):
    for op, sym in ((ScalarOp.LT, "<"), (ScalarOp.GE, ">=")):
        est = restriction_selectivity(stats, c, op)
        exact = exact_join(values, [c], op).selectivity
        print(f"value {sym:>2} {c:<6}  {est:9.4f}  {exact:9.4f}  {abs(est - exact):8.5f}")

# The statistics serialize to a small JSON document.
doc = save_stats(stats)
print(f"\nserialized statistics: {len(doc)} bytes of JSON")
