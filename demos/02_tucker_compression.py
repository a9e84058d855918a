"""Tensor plumbing: unfolding conventions, mode products, Tucker projection.

Shows the first-index-fastest unfolding, the Kronecker-chain identity that
the factor updates rely on, and how orthonormal projections compress a
correlated panel into small cores with little loss.
"""

import numpy as np

from bht_arima import (
    fold,
    mdt_temporal,
    mode_product,
    multi_mode_product,
    synth_dataset,
    unfold,
)

t = np.reshape(np.arange(1.0, 9.0), (2, 2, 2), order="F")
print("2x2x2 tensor, flat buffer 1..8 (first index fastest)")
print("mode-1 unfolding:\n", unfold(t, 1))
print("fold inverts it exactly:", np.array_equal(fold(unfold(t, 1), 1, t.shape), t))

rng = np.random.default_rng(0)
core = rng.standard_normal((2, 3, 2))
factors = [rng.standard_normal((j, r)) for j, r in zip((4, 5, 3), core.shape)]
x = multi_mode_product(core, factors)
lhs = unfold(x, 1)
rhs = factors[1] @ unfold(core, 1) @ np.kron(factors[2], factors[0]).T
print("\nKronecker-chain unfolding identity holds:", np.allclose(lhs, rhs))

# compress a correlated panel: the embedded slices concentrate in few modes
panel = synth_dataset("sinusoid-mixture", 20, 40, noise=0.05, seed=7)
slices = mdt_temporal(panel, 3)  # (20, 3, 38)
print("\npanel of 20 series embeds into 20 x 3 slices;")
sv = np.linalg.svd(slices.reshape(20, -1), compute_uv=False)
print("singular values of the stacked embedding (three shared waveforms + noise):")
print(np.round(sv[:6], 3), "...")

rank = 4
basis = np.linalg.svd(slices.reshape(20, -1), full_matrices=False)[0][:, :rank]
compressed = mode_product(slices, basis.T, 0)
restored = mode_product(compressed, basis, 0)
rel = np.linalg.norm(restored - slices) / np.linalg.norm(slices)
print(f"\nrank-{rank} projection of the series mode keeps the panel within "
      f"{rel:.1%} relative error")
