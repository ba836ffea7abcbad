"""Classification metrics, the cumulative performance index, and rolling views.

Walks through a hand-sized evaluation slice, then shows how a day series
collapses into a single CPI number and how rolling summaries smooth it.
"""

import numpy as np

from galstream import (
    EvalSlice,
    PERFORMANCE_METRICS,
    compute_metric,
    cpi,
    rolling_mean_std,
)

truth = np.array([1, 1, 0, 0, 1, 0])
scores = np.array([0.92, 0.41, 0.58, 0.12, 0.77, 0.33])
s = EvalSlice(true_labels=truth, probabilities=np.column_stack([1 - scores, scores]))

print("labels:", truth.tolist())
print("scores:", scores.tolist())
for name in PERFORMANCE_METRICS:
    print(f"{name:10s} {compute_metric(s, name):.4f}")

# a day series with a mid-stream dip: CPI is its trapezoid average
days = np.arange(10)
values = np.array([0.9, 0.85, 0.8, 0.4, 0.45, 0.6, 0.7, 0.75, 0.8, 0.85])
print(f"\nday series:   {values.tolist()}")
print(f"CPI: {cpi(days, values):.4f} (a constant series maps to itself; perfect scores give 1.0)")

means, stds = rolling_mean_std(values, window=5)
print(f"rolling mean: {[round(float(v), 3) for v in means]}")
print(f"rolling std:  {[round(float(v), 3) for v in stds]}")
