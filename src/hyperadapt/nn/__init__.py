"""Convolution kernels, separable pipelines, baselines, loss, optimizer, training."""

from .conv import (
    adaptive_avg_pool,
    adaptive_avg_pool_backward,
    conv2d,
    conv2d_backward,
    conv_output_size,
)
from .gradcheck import gradient_check
from .layers import (
    Conv2dLayer,
    CpFirstLayer,
    Linear,
    Param,
    ReduceFirstLayer,
    ReLU,
    ScratchFirstLayer,
    TuckerFirstLayer,
    build_reduce,
    build_scratch,
    reduce_hidden_width,
)
from .model import (
    Model,
    build_model,
    count_trainable,
    cross_entropy,
    first_layer_from_adapted,
    forward_backward,
    load_model,
    save_model,
)
from .optim import Adam
from .train import LOG_HEADER, TrainConfig, evaluate, train, write_log_csv

__all__ = [
    "adaptive_avg_pool", "adaptive_avg_pool_backward", "conv2d",
    "conv2d_backward", "conv_output_size",
    "gradient_check",
    "Conv2dLayer", "CpFirstLayer", "Linear", "Param", "ReduceFirstLayer", "ReLU",
    "ScratchFirstLayer", "TuckerFirstLayer", "build_reduce", "build_scratch",
    "reduce_hidden_width",
    "Model", "build_model", "count_trainable", "cross_entropy",
    "first_layer_from_adapted", "forward_backward", "load_model", "save_model",
    "Adam", "LOG_HEADER", "TrainConfig", "evaluate", "train", "write_log_csv",
]
