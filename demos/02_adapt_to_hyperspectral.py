"""Widen decomposed RGB filters to hyperspectral channel counts.

The spatial parts are copied and frozen; only the spectral parts change
shape. At 3 channels with the interpolating init, adaptation is exactly the
identity; at any width, every channel slice of the decompressed filter stays
inside the span of the frozen spatial patterns.
"""

import numpy as np

from hyperadapt.data import synth_filter_bank
from hyperadapt.decomp import decompose_bank
from hyperadapt.filteradapt import adapt, decompress, span_residual

bank = synth_filter_bank(c_out=8, k=7, seed=1, noise=0.02)
decomps, _ = decompose_bank(bank, "cp", 2)

layer3 = adapt(decomps, 3, init="interp")
source = np.stack([d.reconstruct() for d in decomps])
print("identity adaptation (3 channels, interp):",
      f"max abs difference {np.abs(decompress(layer3) - source).max():.2e}")

for channels in (25, 103, 200):
    layer = adapt(decomps, channels, init="interp", bias=bank.bias)
    dense = decompress(layer)
    resid = max(span_residual(layer, o) for o in range(layer.out_channels))
    print(f"{channels:>3} channels -> dense bank {dense.shape}, "
          f"{layer.spectral.size} trainable spectral values, "
          f"worst span residual {resid:.1e}")

print()
print("three initialization policies for one spectral column")
col = decomps[0].spectral[:, 0]
print("  original:", np.round(col, 3))
for init in ("interp", "replicate", "random"):
    layer = adapt(decomps, 9, init=init, seed=7)
    print(f"  {init:>9}:", np.round(layer.spectral[0, :, 0], 3))
print()
print("interp spreads the 3 values smoothly (scaled so a channel-constant")
print("input keeps its response); replicate tiles them; random draws at a")
print("matched magnitude. All three are reproducible from the seed.")
