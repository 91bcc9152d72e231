"""Which hyperadapt calls the traced run wraps, and the per-layer metrics built from them.

Layers are the package's modules: ``nn.conv``, ``nn.layers``, ``nn.model``,
``nn.optim``, ``nn.train``, ``decomp``, ``linalg``, ``tensor``,
``filteradapt``, ``data``, ``io`` and ``cli``. ``io`` is ``_io`` plus the
save/load functions of the six containers, whatever module defines them.

Metrics named ``*_calls``, ``*_ms`` totals, ``macs``, ``bytes`` and
``self_ms.*`` are per pass: what one set-up plus one timed round costs.
Metrics that compare with per-batch figures (first layer, mid conv, pool,
head, loss) are medians over calls, scaled to a batch of 128 tiles.
"""

from __future__ import annotations

import os
import statistics
import sys
from collections import defaultdict

import numpy as np

from tracer import (
    Tracer,
    classify_conv,
    conv_macs,
    conv_out_shape,
    self_times,
)

PACKAGE = "hyperadapt"
LAYERS = ("nn.conv", "nn.layers", "nn.model", "nn.optim", "nn.train", "decomp",
          "linalg", "tensor", "filteradapt", "data", "io", "cli")
METHODS = ("cp", "tucker", "reduce", "scratch")
CONV_KINDS = ("pointwise", "depthwise", "grouped", "dense")
FORMATS = {  # container -> (module, save function, load function)
    "TNS1": ("tensor", "save_tensor", "load_tensor"),
    "DCP1": ("decomp", "save_decomps", "load_decomps"),
    "ADP1": ("filteradapt", "save_adapted", "load_adapted"),
    "MDL1": ("nn.model", "save_model", "load_model"),
    "HSC1": ("data", "save_cube", "load_cube"),
    "TLS1": ("data", "save_tiles", "load_tiles"),
}
CLI_COMMANDS = ("decompose", "adapt", "train", "rank_sweep", "export_filters", "gradcheck")


def _pair(v):
    return (int(v[0]), int(v[1])) if isinstance(v, (tuple, list)) else (int(v), int(v))


def _batch4(shape):
    return tuple(shape) if len(shape) == 4 else (1,) + tuple(shape)


def _conv_fwd_attrs(x, w, bias=None, stride=1, padding=0, groups=1):
    xs, ws = _batch4(np.shape(x)), np.shape(w)
    out = conv_out_shape(xs, ws, _pair(stride), _pair(padding))
    return {"kind": classify_conv(ws, groups), "macs": conv_macs(out, ws),
            "bytes": 8 * (int(np.prod(xs)) + int(np.prod(ws)) + int(np.prod(out)))}


def _conv_bwd_attrs(x, w, dout, stride=1, padding=0, groups=1,
                    need_dx=True, need_dw=True, need_db=False):
    xs, ws, ds = _batch4(np.shape(x)), np.shape(w), _batch4(np.shape(dout))
    nx, nw = int(np.prod(xs)), int(np.prod(ws))
    return {"kind": classify_conv(ws, groups),
            "macs": conv_macs(ds, ws) * (int(bool(need_dx)) + int(bool(need_dw))),
            "bytes": 8 * (nx + nw + int(np.prod(ds)) + nx * bool(need_dx) + nw * bool(need_dw))}


def _n(arr) -> int:
    shape = np.shape(arr)
    return 1 if len(shape) == 3 else int(shape[0])


def _method_batch(self, x, *_, **__):
    return {"n": _n(x)}


def _fn_batch(x, *_, **__):
    return {"n": _n(x)}


def _conv_layer_role(layer):
    if type(layer).__name__ == "ScratchFirstLayer":
        return "first.scratch"
    return "mid" if layer.weight.name == "mid.weight" else "conv"


def _cp_attrs(filt, rank, opts=None, stream=0):
    return {"max_iters": opts.max_iters if opts is not None else
            sys.modules[f"{PACKAGE}.decomp"].CpOptions().max_iters}


def _load_attrs(path, *_, **__):
    return {"bytes": os.path.getsize(path)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer."""
    def module(name):
        return sys.modules[f"{PACKAGE}.{name}"]

    def fn(mod, attr, name, attrs=None, post=None):
        tracer.patch_function(PACKAGE, f"{PACKAGE}.{mod}", attr, name, attrs, post)

    fn("nn.conv", "conv2d", "nn.conv:conv2d", _conv_fwd_attrs)
    fn("nn.conv", "conv2d_backward", "nn.conv:conv2d_backward", _conv_bwd_attrs)
    fn("nn.conv", "adaptive_avg_pool", "nn.conv:pool.forward", _fn_batch)
    fn("nn.conv", "adaptive_avg_pool_backward", "nn.conv:pool.backward", _fn_batch)

    layers = module("nn.layers")
    for cls, kind in ((layers.CpFirstLayer, "cp"), (layers.TuckerFirstLayer, "tucker"),
                      (layers.ReduceFirstLayer, "reduce")):
        for method in ("forward", "backward"):
            tracer.patch_method(cls, method, f"nn.layers:first.{kind}.{method}", _method_batch)
    for method in ("forward", "backward"):
        tracer.patch_method(
            layers.Conv2dLayer, method,
            lambda self, x, _m=method: f"nn.layers:{_conv_layer_role(self)}.{_m}",
            _method_batch)
        tracer.patch_method(layers.Linear, method, f"nn.layers:head.{method}", _method_batch)
        tracer.patch_method(layers.ReLU, method, f"nn.layers:relu.{method}")
    for attr in ("build_reduce", "build_scratch"):
        fn("nn.layers", attr, f"nn.layers:{attr}")

    model = module("nn.model").Model
    tracer.patch_method(model, "forward", "nn.model:forward")
    tracer.patch_method(model, "backward", "nn.model:backward")
    fn("nn.model", "cross_entropy", "nn.model:cross_entropy", _fn_batch)
    for attr in ("forward_backward", "build_model", "first_layer_from_adapted"):
        fn("nn.model", attr, f"nn.model:{attr}")

    tracer.patch_method(module("nn.optim").Adam, "step", "nn.optim:adam.step")
    for attr in ("train", "evaluate", "write_log_csv"):
        fn("nn.train", attr, f"nn.train:{attr}")

    fn("decomp", "cp_decompose", "decomp:cp_decompose", _cp_attrs,
       lambda d: {"sweeps": len(d.sweep_errors), "error": d.relative_error})
    fn("decomp", "tucker1_decompose", "decomp:tucker1_decompose", None,
       lambda d: {"error": d.relative_error})
    for attr in ("decompose_bank", "cp_reconstruct", "tucker1_reconstruct"):
        fn("decomp", attr, f"decomp:{attr}")
    for attr in ("svd", "lstsq_gram"):
        fn("linalg", attr, f"linalg:{attr}")
    for attr in ("khatri_rao", "frobenius_norm", "unfold", "fold", "mode_product"):
        fn("tensor", attr, f"tensor:{attr}")
    for attr in ("adapt", "decompress"):
        fn("filteradapt", attr, f"filteradapt:{attr}")
    for attr in ("synth_filter_bank", "synth_spectral_task", "tile_remote_sensing",
                 "resize_bilinear", "normalize", "apply_stats", "split_tiles"):
        fn("data", attr, f"data:{attr}")

    fn("_io", "atomic_write_bytes", "io:atomic_write_bytes",
       lambda path, data: {"bytes": len(data)})
    fn("_io", "read_exact", "io:read_exact")
    for fmt, (mod, save, load) in FORMATS.items():
        fn(mod, save, f"io:save.{fmt}")
        fn(mod, load, f"io:load.{fmt}", _load_attrs)

    fn("cli", "main", "cli:main")
    fn("cli", "parse_config", "cli:parse_config")
    for command in CLI_COMMANDS:
        fn("cli", f"cmd_{command}", f"cli:command.{command}")


def _median(values):
    return statistics.median(values) if values else None


def _p90(values):
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


def layer_metrics(spans, setup_count: int, rounds: int) -> dict:
    """Per-layer metrics from the spans of one traced set-up and ``rounds`` traced rounds.

    ``spans[:setup_count]`` belong to the set-up. Returns name -> (value, unit);
    a per-call median with no calls behind it is left out.
    """
    by_name: dict[str, list] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)
    out: dict[str, tuple] = {}

    def per_pass(pairs):
        """One set-up plus the mean round, from (span, value) pairs."""
        setup = loop = 0
        for s, value in pairs:
            if s.sid < setup_count:
                setup += value
            else:
                loop += value
        return setup + loop / rounds

    def total(names, value=lambda s: s.duration * 1e3, keep=lambda s: True):
        names = (names,) if isinstance(names, str) else names
        return per_pass((s, value(s)) for n in names for s in by_name[n] if keep(s))

    def count(names, keep=lambda s: True):
        return total(names, lambda s: 1, keep)

    def ms(name):
        return [s.duration * 1e3 for s in by_name[name]]

    def per128(name):
        return [s.duration * 1e3 * 128 / s.attrs["n"] for s in by_name[name]]

    def put(key, value, unit):
        if value is not None:
            out[key] = (value, unit)

    for m in METHODS:
        put(f"nn.layers.first_fwd_ms.{m}", _median(per128(f"nn.layers:first.{m}.forward")), "ms")
        put(f"nn.layers.first_bwd_ms.{m}", _median(per128(f"nn.layers:first.{m}.backward")), "ms")

    conv = ("nn.conv:conv2d", "nn.conv:conv2d_backward")
    for kind in CONV_KINDS:
        of_kind = lambda s, k=kind: s.attrs["kind"] == k
        put(f"nn.conv.fwd_ms.{kind}", total(conv[0], keep=of_kind), "ms")
        put(f"nn.conv.bwd_ms.{kind}", total(conv[1], keep=of_kind), "ms")
        put(f"nn.conv.calls.{kind}", count(conv, keep=of_kind), "count")
    put("nn.conv.macs", total(conv, lambda s: s.attrs["macs"]), "count")
    put("nn.conv.bytes", total(conv, lambda s: s.attrs["bytes"]), "count")

    def fwd_bwd(prefix):
        f, b = _median(per128(f"{prefix}.forward")), _median(per128(f"{prefix}.backward"))
        return None if f is None else f + (b or 0.0)

    put("nn.model.mid_fwd_ms", _median(per128("nn.layers:mid.forward")), "ms")
    put("nn.model.mid_bwd_ms", _median(per128("nn.layers:mid.backward")), "ms")
    put("nn.model.pool_ms", fwd_bwd("nn.conv:pool"), "ms")
    put("nn.model.head_ms", fwd_bwd("nn.layers:head"), "ms")
    put("nn.model.loss_ms", _median(per128("nn.model:cross_entropy")), "ms")
    put("nn.optim.adam_step_ms", _median(ms("nn.optim:adam.step")), "ms")
    put("nn.train.evaluate_ms", _median(ms("nn.train:evaluate")), "ms")

    cp, tk = "decomp:cp_decompose", "decomp:tucker1_decompose"
    put("decomp.cp_filter_ms", _median(ms(cp)), "ms")
    put("decomp.cp_filter_ms.p90", _p90(ms(cp)), "ms")
    put("decomp.als_sweeps", total(cp, lambda s: s.attrs["sweeps"]), "count")
    put("decomp.capped_filters",
        count(cp, keep=lambda s: s.attrs["sweeps"] >= s.attrs["max_iters"]), "count")
    put("decomp.tucker_filter_ms", _median(ms(tk)), "ms")
    for kind, name in (("cp", cp), ("tucker", tk)):
        if by_name[name]:
            put(f"decomp.mean_rel_error.{kind}",
                float(np.mean([s.attrs["error"] for s in by_name[name]])), "ratio")

    for layer, attr in (("linalg", "lstsq_gram"), ("linalg", "svd"), ("tensor", "khatri_rao")):
        put(f"{layer}.{attr}_calls", count(f"{layer}:{attr}"), "count")
        put(f"{layer}.{attr}_ms", total(f"{layer}:{attr}"), "ms")
    put("tensor.frobenius_norm_calls", count("tensor:frobenius_norm"), "count")

    put("filteradapt.adapt_ms", _median(ms("filteradapt:adapt")), "ms")
    put("data.tile_ms", total("data:tile_remote_sensing"), "ms")
    normalize_sids = {s.sid for s in by_name["data:normalize"]}
    put("data.normalize_ms", total("data:normalize") + total(
        "data:apply_stats", keep=lambda s: s.parent not in normalize_sids), "ms")
    put("data.synth_ms", total(("data:synth_filter_bank", "data:synth_spectral_task")), "ms")

    for fmt in FORMATS:
        for op in ("save", "load"):
            if by_name[f"io:{op}.{fmt}"]:
                put(f"io.{op}_ms.{fmt}", total(f"io:{op}.{fmt}"), "ms")
    put("io.bytes_written", total("io:atomic_write_bytes", lambda s: s.attrs["bytes"]), "count")
    put("io.bytes_read", total([f"io:load.{fmt}" for fmt in FORMATS],
                               lambda s: s.attrs["bytes"]), "count")

    put("cli.parse_config_ms", _median(ms("cli:parse_config")), "ms")
    for command in CLI_COMMANDS:
        put(f"cli.command_ms.{command}", _median(ms(f"cli:command.{command}")), "ms")

    for layer in LAYERS:
        put(f"self_ms.{layer}", per_pass((s, selfs[s.sid] * 1e3)
                                         for s in spans if s.layer == layer), "ms")
    put("trace.spans", per_pass((s, 1) for s in spans), "count")
    return out
