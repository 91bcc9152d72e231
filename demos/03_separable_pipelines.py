"""Run adapted layers as separable convolutions and compare with dense.

A CP layer is a pointwise convolution, then a vertical (k1 x 1) and a
horizontal (1 x k2) depthwise convolution, then a sum over each filter's
rank terms; a Tucker layer is a pointwise convolution followed by
one grouped 2-D convolution initialized with the cores. Both agree with the
dense convolution of the decompressed bank to float64 round-off, while
exposing far fewer trainable parameters than a from-scratch dense layer.
"""

import numpy as np

from hyperadapt.data import synth_filter_bank
from hyperadapt.decomp import decompose_bank
from hyperadapt.filteradapt import adapt, decompress
from hyperadapt.nn import (
    CpFirstLayer,
    TuckerFirstLayer,
    build_model,
    build_reduce,
    build_scratch,
    conv2d,
    count_trainable,
    first_layer_from_adapted,
)

channels, c_out, k, rank = 64, 8, 7, 2
bank = synth_filter_bank(c_out, k, seed=2, noise=0.02)
rng = np.random.default_rng(0)
x = rng.standard_normal((channels, 32, 32))

for kind, pipeline in (("cp", CpFirstLayer), ("tucker", TuckerFirstLayer)):
    decomps, _ = decompose_bank(bank, kind, rank)
    layer = adapt(decomps, channels, bias=bank.bias)
    dense_out = conv2d(x, decompress(layer), layer.bias)
    pipe_out = pipeline(layer).forward(x)
    print(f"{kind:>6}: pipeline output {pipe_out.shape}, "
          f"max abs diff vs dense {np.abs(pipe_out - dense_out).max():.2e}")

print()
print("trainable parameters of the four first-layer choices plus classifier")
decomps, _ = decompose_bank(bank, "cp", rank)
firsts = {
    "cp": first_layer_from_adapted(adapt(decomps, channels, bias=bank.bias)),
    "tucker": first_layer_from_adapted(
        adapt(decompose_bank(bank, "tucker", rank)[0], channels, bias=bank.bias)),
    "reduce": build_reduce(channels, bank, rank=rank),
    "scratch": build_scratch(channels, bank),
}
for name, first in firsts.items():
    model = build_model(first, classes=10, pool=(1, 1))
    first_count = sum(p.value.size for p in first.params() if p.trainable)
    print(f"  {name:>8}: first layer {first_count:>7,}   model {count_trainable(model):>7,}")

print()
print(f"scratch / decomposed first-layer ratio: "
      f"{firsts['scratch'].weight.value.size / (c_out * rank * channels):.1f} "
      f"(= k1*k2/R = {k * k / rank})")
