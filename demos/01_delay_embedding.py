"""Delay embedding in action: windows, Hankel structure, exact inversion.

Turns a short series into its block of overlapping windows, shows the
implicit duplication matrix that defines the transform, and demonstrates
that inversion by anti-diagonal averaging is exact on embedded data and
reconciles conflicting values by their mean.
"""

import numpy as np

from bht_arima import inverse_mdt_temporal, mdt_temporal

series = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
tau = 3

print("series:", series[0])
embedded = mdt_temporal(series, tau)
print(f"\nembedded shape (series, window offset, window index): {embedded.shape}")
print("windows (columns advance one step, rows look tau steps ahead):")
print(embedded[0])

print("\nanti-diagonals are constant: h[i, j] == h[i-1, j+1]")
print("check:", np.array_equal(embedded[0, 1:, :-1], embedded[0, :-1, 1:]))

# The transform is linear, so embedding the identity yields its matrix.
length = series.shape[-1]
s = mdt_temporal(np.eye(length), tau).reshape(length, -1, order="F").T
print(f"\nthe implicit duplication matrix has shape {s.shape};")
print("its Gram diagonal counts how many windows cover each position:")
print(np.diag(s.T @ s))

back = inverse_mdt_temporal(embedded, tau)
print("\ninverse recovers the series exactly:", np.max(np.abs(back - series)))

conflict = np.array([[[1.0, 9.0], [2.0, 4.0]]])  # windows [1;2] and [9;4]
print("\nconflicting duplicates average out:", inverse_mdt_temporal(conflict, 2)[0])
