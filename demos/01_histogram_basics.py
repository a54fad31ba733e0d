"""
Equi-depth histograms as approximate distributions
==================================================

Analyze a small integer column at statistics target 3 and read the CDF of
the three-bin equi-depth histogram ANALYZE builds: no value repeats, so
there is no MCV list and the histogram covers every row.  Every bin holds
the same share of rows, so bin widths adapt: tight where the data is
dense, wide where it is sparse.
"""

import numpy as np

from ineqsel import analyze_column, cdf

column = [10, 11, 12, 20, 21, 22, 24, 25, 30, 35, 38, 45]
h = analyze_column(column, 3).histogram

print("column:", column)
print("boundaries:", h.bounds.tolist())
print()

# Each bin carries exactly 1/3 of the rows.
for j in range(h.bin_count):
    lo, hi = h.bounds[j], h.bounds[j + 1]
    inside = [v for v in column if (v >= lo if j == 0 else v > lo) and v <= hi]
    print(f"bin {j}: ]{lo:g}, {hi:g}]  width={hi - lo:4g}  rows={inside}")
print()

# The CDF interpolates linearly inside a bin and is exact at boundaries.
probes = np.linspace(5, 50, 10)
for c in probes:
    print(f"cdf({c:5.1f}) = {cdf(h, float(c)):.4f}")
