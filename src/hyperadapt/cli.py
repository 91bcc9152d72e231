"""Command line: decompose -> adapt -> train -> rank-sweep -> export-filters.

Every command is deterministic given its flags. Exit codes: 0 success,
1 I/O problems (missing or malformed files), 2 usage problems (bad flags or
config), 3 numerical failures (non-finite training or test loss, failed
gradient check). Output files are written atomically.

Run configurations are plain ``key = value`` files; ``#`` starts a comment.
Each :class:`RunConfig` field states its key's type, default and rule, and
every key is checked when the file is read, so a bad value exits 2 with a
message naming the key. Bounded flags are checked by the same rules.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from ._io import atomic_write_bytes, atomic_write_text
from ._settings import SEED, check_settings, setting, violation
from .data import (
    apply_stats,
    load_tiles,
    normalize,
    synth_filter_bank,
    synth_spectral_task,
)
from .decomp import CP, TUCKER, CpOptions, decompose_bank, load_decomps, save_decomps
from .errors import (
    DataError,
    FormatError,
    NumericalError,
    ShapeError,
    UnsupportedKindError,
    UsageError,
)
from .filteradapt import INIT_POLICIES, FilterBank, adapt, save_adapted
from .nn import (
    TrainConfig,
    build_model,
    build_reduce,
    build_scratch,
    conv_output_size,
    count_trainable,
    first_layer_from_adapted,
    load_model,
    save_model,
    train,
    write_log_csv,
)
from .nn.gradcheck import gradient_check
from .tensor import load_tensor

__all__ = ["main", "RunConfig", "parse_config", "METHODS"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

METHODS = ("cp", "tucker", "reduce", "scratch")


@dataclass(frozen=True)
class RunConfig:
    """Training-run configuration; defaults mirror the standard protocol.

    Each field states its rule beside its default and every float must be
    finite; a value that breaks a rule raises UsageError naming the key. The
    training and ALS keys take their defaults and rules from TrainConfig and
    CpOptions, built by :meth:`train_config` and :meth:`cp_options`.
    """

    method: str = setting("cp", ("in", METHODS))
    rank: int = setting(2, (">=", 1))
    init: str = setting("interp", ("in", INIT_POLICIES))
    hidden: int = setting(0, (">=", 0))    # reduce baseline width; 0 = match decomposed trainables
    pool: int = setting(1, (">=", 1))
    stride: int = setting(1, (">=", 1))
    padding: int = setting(0, (">=", 0))
    lr0: float = TrainConfig.lr0
    gamma: float = TrainConfig.gamma
    batch: int = TrainConfig.batch_size
    epochs: int = TrainConfig.epochs
    seed: int = TrainConfig.seed
    restarts: int = CpOptions.restarts
    tol: float = CpOptions.tol
    max_iters: int = CpOptions.max_iters
    train_tiles: str = ""    # TLS1 path; empty = synthesize
    test_tiles: str = ""
    synth_channels: int = setting(64, (">=", 1))
    synth_classes: int = setting(4, (">=", 2))
    synth_samples: int = setting(200, (">=", 1))
    synth_tile: int = setting(16, (">=", 1))
    synth_noise: float = setting(0.1, (">=", 0))
    synth_seed: int = setting(0, SEED)
    bank: str = ""           # TNS1 path for the RGB bank; empty = synthesize
    bank_bias: str = ""
    bank_filters: int = setting(8, (">=", 1))
    bank_kernel: int = setting(5, (">=", 1))
    bank_seed: int = setting(0, SEED)
    out_model: str = "model.mdl1"
    out_log: str = "train_log.csv"

    def __post_init__(self):
        check_settings(self)
        if bool(self.train_tiles) != bool(self.test_tiles):
            raise UsageError("train_tiles and test_tiles must be given together")
        # TrainConfig and CpOptions check the keys they own.
        self.train_config()
        self.cp_options()

    def train_config(self) -> TrainConfig:
        return TrainConfig(lr0=self.lr0, gamma=self.gamma, batch_size=self.batch,
                           epochs=self.epochs, seed=self.seed)

    def cp_options(self) -> CpOptions:
        return CpOptions(tol=self.tol, max_iters=self.max_iters,
                         restarts=self.restarts, seed=self.seed)


def parse_config(path: str) -> RunConfig:
    """Parse a key=value config file into a RunConfig, which checks every value."""
    types = get_type_hints(RunConfig)
    values = {}
    with open(path) as f:
        for ln, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in types:
                raise UsageError(f"{path}:{ln}: unknown key {key!r}")
            try:
                values[key] = types[key](val)
            except ValueError:
                raise UsageError(f"{path}:{ln}: bad value {val!r} for {key}") from None
    return RunConfig(**values)


def _load_task(cfg: RunConfig):
    if cfg.train_tiles:
        train_ts = load_tiles(cfg.train_tiles)
        test_ts = load_tiles(cfg.test_tiles)
    else:
        try:
            train_ts, test_ts = synth_spectral_task(
                cfg.synth_channels, cfg.synth_classes, cfg.synth_samples,
                seed=cfg.synth_seed, tile=cfg.synth_tile, noise=cfg.synth_noise,
            )
        except DataError as exc:  # the synth_* keys ask for a task that cannot exist
            raise UsageError(f"synthetic task: {exc}") from exc
    train_ts = normalize(train_ts)
    test_ts = apply_stats(test_ts, train_ts.stats)
    return train_ts, test_ts


def _load_bank(cfg: RunConfig) -> FilterBank:
    if cfg.bank:
        weights = load_tensor(cfg.bank)
        bias = load_tensor(cfg.bank_bias) if cfg.bank_bias else None
        return FilterBank(weights, bias)
    return synth_filter_bank(cfg.bank_filters, cfg.bank_kernel, cfg.bank_seed)


def _build_first_layer(cfg: RunConfig, bank: FilterBank, channels: int):
    if cfg.method in (CP, TUCKER):
        decomps, _ = decompose_bank(bank, cfg.method, cfg.rank, cfg.cp_options())
        layer = adapt(decomps, channels, init=cfg.init, seed=cfg.seed, bias=bank.bias)
        return first_layer_from_adapted(layer, stride=cfg.stride, padding=cfg.padding)
    if cfg.method == "reduce":
        return build_reduce(channels, bank, hidden=cfg.hidden or None, rank=cfg.rank,
                            seed=cfg.seed, stride=cfg.stride, padding=cfg.padding)
    return build_scratch(channels, bank, seed=cfg.seed,
                         stride=cfg.stride, padding=cfg.padding)


def _load_run(cfg: RunConfig):
    """What a run trains on, none of which depends on its rank or seed.

    Returns the normalized (train, test) tiles, the RGB bank and the class count.
    """
    train_ts, test_ts = _load_task(cfg)
    # normalize() checked the train tiles through their stats; the test tiles
    # are only shifted. Per-channel extremes need no tile-sized mask, and the
    # initial value lets an empty test set through to train()'s own check.
    lo = test_ts.tiles.min(axis=(0, 2, 3), initial=0.0)
    hi = test_ts.tiles.max(axis=(0, 2, 3), initial=0.0)
    bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi)))
    if bad.size:
        raise DataError(f"test tile channels {bad.tolist()} hold non-finite values")
    bank = _load_bank(cfg)
    # normalize() has already rejected an empty training set; train() rejects an empty test set.
    labels = np.concatenate((train_ts.labels, test_ts.labels))
    classes = int(labels.max()) + 1
    # The head has one row per class, so a hostile label must not size it.
    if labels.min() < 0 or classes > labels.size:
        raise DataError(
            f"labels must lie in [0, {labels.size}) for {labels.size} tiles, "
            f"got range [{labels.min()}, {labels.max()}]"
        )
    # The model pools the first layer's output; the mid conv keeps its size.
    (h, w), (kh, kw) = train_ts.tiles.shape[2:], bank.weights.shape[2:]
    ho = conv_output_size(h, kh, cfg.stride, cfg.padding)
    wo = conv_output_size(w, kw, cfg.stride, cfg.padding)
    geometry = f"{h}x{w} tiles, {kh}x{kw} kernel, stride {cfg.stride}, padding {cfg.padding}"
    if min(ho, wo) < 1:
        raise UsageError(f"the first layer's output is empty ({geometry})")
    if min(ho, wo) < cfg.pool:
        raise UsageError(
            f"pool ({cfg.pool}) must be <= the first layer's output size {ho}x{wo} ({geometry})")
    return train_ts, test_ts, bank, classes


def _run_training(cfg: RunConfig, run):
    """Train on ``run``, as returned by :func:`_load_run`."""
    train_ts, test_ts, bank, classes = run
    first = _build_first_layer(cfg, bank, train_ts.channels)
    model = build_model(first, classes, pool=(cfg.pool, cfg.pool), seed=cfg.seed)
    rows = train(model, train_ts.tiles, train_ts.labels,
                 test_ts.tiles, test_ts.labels, cfg.train_config())
    return model, rows


# ---------------------------------------------------------------- commands

def cmd_decompose(args) -> int:
    bank = FilterBank(load_tensor(args.bank),
                      load_tensor(args.bias) if args.bias else None)
    opts = CpOptions(tol=args.tol, max_iters=args.max_iters,
                     restarts=args.restarts, seed=args.seed)
    decomps, errors = decompose_bank(bank, args.kind, args.rank, opts)
    save_decomps(args.out, decomps)
    for o, err in enumerate(errors):
        print(f"filter {o}: relative error {err:.3e}")
    print(f"mean relative error: {errors.mean():.3e}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    kind, decomps, _ = load_decomps(args.decomp)
    bias = load_tensor(args.bias) if args.bias else None
    layer = adapt(decomps, args.channels, init=args.init, seed=args.seed, bias=bias)
    save_adapted(args.out, layer)
    c_out, ch, rank = layer.spectral.shape
    print(f"{kind} layer: {c_out} filters, {ch} channels, rank {rank}; "
          f"{c_out * ch * rank} trainable spectral values")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.epochs is not None:
        cfg = replace(cfg, epochs=args.epochs)
    model, rows = _run_training(cfg, _load_run(cfg))
    write_log_csv(rows, cfg.out_log)
    save_model(model, cfg.out_model,
               meta={"rank": str(cfg.rank), "init": cfg.init, "seed": str(cfg.seed)})
    final = rows[-1] if rows else None
    if final:
        print(f"epochs: {len(rows)}  final test accuracy: {final[4]:.4f}  "
              f"trainable parameters: {count_trainable(model)}")
    print(f"wrote {cfg.out_model} and {cfg.out_log}")
    return EXIT_OK


def cmd_rank_sweep(args) -> int:
    cfg = parse_config(args.config)
    if cfg.method not in (CP, TUCKER):
        raise UsageError("rank sweeps apply to the decomposed methods (cp, tucker)")
    ranks = []
    for part in args.ranks.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            r = int(part)
        except ValueError:
            raise UsageError(f"bad rank {part!r}") from None
        replace(cfg, rank=r)  # RunConfig checks the rank
        if r in ranks:
            raise UsageError(f"duplicate rank {r}")
        ranks.append(r)
    if not ranks:
        raise UsageError("no ranks given")

    run = _load_run(cfg)
    results = []
    for rank in ranks:
        for s in range(args.seeds):
            model, rows = _run_training(replace(cfg, rank=rank, seed=cfg.seed + s), run)
            results.append((rank, rows[-1][4] if rows else 0.0, count_trainable(model)))

    lines = ["rank,mean_accuracy,sem,trainable_params"]
    for rank in ranks:
        accs = np.array([acc for r, acc, _ in results if r == rank])
        params = next(p for r, _, p in results if r == rank)
        sem = float(accs.std(ddof=1) / np.sqrt(len(accs))) if len(accs) > 1 else 0.0
        lines.append(f"{rank},{accs.mean():.12g},{sem:.12g},{params}")
        print(f"rank {rank}: accuracy {accs.mean():.4f} +/- {sem:.4f} "
              f"({params} trainable)")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def _filter_to_pixels(img2d: np.ndarray) -> np.ndarray:
    # Symmetric mapping around zero so sign structure survives; a zero filter
    # becomes uniform mid-gray.
    peak = float(np.abs(img2d).max())
    if peak == 0.0:
        return np.full(img2d.shape, 128, dtype=np.uint8)
    scaled = np.rint(127.5 + 127.5 * img2d / peak)
    return np.clip(scaled, 0, 255).astype(np.uint8)


def _write_pgm(path: str, img: np.ndarray) -> None:
    h, w = img.shape
    atomic_write_bytes(path, b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())


def cmd_export_filters(args) -> int:
    model, _ = load_model(args.model)
    bank = model.first.dense_bank()
    os.makedirs(args.out_dir, exist_ok=True)
    c_out = bank.shape[0]
    pooled = bank.mean(axis=1)  # average over the channel dimension
    for o in range(c_out):
        _write_pgm(os.path.join(args.out_dir, f"filter_{o:03d}.pgm"),
                   _filter_to_pixels(pooled[o]))
    cols = int(math.ceil(math.sqrt(c_out)))
    rows = int(math.ceil(c_out / cols))
    kh, kw = pooled.shape[1], pooled.shape[2]
    canvas = np.zeros((rows * (kh + 1) + 1, cols * (kw + 1) + 1), dtype=np.uint8)
    for o in range(c_out):
        r, c = divmod(o, cols)
        canvas[1 + r * (kh + 1):1 + r * (kh + 1) + kh,
               1 + c * (kw + 1):1 + c * (kw + 1) + kw] = _filter_to_pixels(pooled[o])
    _write_pgm(os.path.join(args.out_dir, "composite.pgm"), canvas)
    print(f"wrote {c_out} filter images and composite.pgm to {args.out_dir}")
    return EXIT_OK


def _micro_model(method: str, seed: int = 0):
    channels, c_out, kernel, rank = 8, 4, 5, 2
    bank = synth_filter_bank(c_out, kernel, seed=seed)
    cfg = RunConfig(method=method, rank=rank, seed=seed)
    first = _build_first_layer(cfg, bank, channels)
    model = build_model(first, classes=3, pool=(1, 1), seed=seed)
    rng = np.random.default_rng([seed, 7])
    batch = rng.standard_normal((4, channels, 12, 12))
    labels = rng.integers(0, 3, 4)
    return model, batch, labels


def cmd_gradcheck(args) -> int:
    if args.config:
        cfg = parse_config(args.config)
        methods = [cfg.method]
        seed = cfg.seed
    else:
        methods = list(METHODS)
        seed = args.seed
    failed = False
    for method in methods:
        model, batch, labels = _micro_model(method, seed)
        worst = gradient_check(model, batch, labels, eps=args.eps)
        for name, err in sorted(worst.items()):
            ok = err <= args.tol
            failed = failed or not ok
            print(f"{method:8s} {name:20s} worst relative error {err:.3e} "
                  f"{'ok' if ok else 'FAIL'}")
    if failed:
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_NUMERICAL
    print("gradient check passed")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _flag(kind, *rules):
    """argparse type for a bounded flag: a ``kind`` value that obeys ``rules``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        problem = violation(value, rules)
        if problem:
            raise argparse.ArgumentTypeError(problem)
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperadapt",
        description="Adapt RGB filter banks to hyperspectral inputs via "
                    "partially trainable tensor decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a filter bank (TNS1 -> DCP1)")
    p.add_argument("--bank", required=True, help="TNS1 file with (C_out, 3, k1, k2) weights")
    p.add_argument("--bias", default="", help="optional TNS1 file with (C_out,) bias")
    p.add_argument("--kind", choices=(CP, TUCKER), required=True)
    p.add_argument("--rank", type=_flag(int, (">=", 1)), required=True)
    hints = get_type_hints(CpOptions)
    for f in fields(CpOptions):  # --tol, --max-iters, --restarts, --seed
        p.add_argument(f"--{f.name.replace('_', '-')}", default=f.default,
                       type=_flag(hints[f.name], *f.metadata["rules"]))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("adapt", help="widen spectral components (DCP1 -> ADP1)")
    p.add_argument("--decomp", required=True)
    p.add_argument("--channels", type=_flag(int, (">=", 1)), required=True)
    p.add_argument("--init", choices=INIT_POLICIES, default="interp")
    p.add_argument("--seed", type=_flag(int, SEED), default=0)
    p.add_argument("--bias", default="", help="optional TNS1 file with (C_out,) bias")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("train", help="train per a config file (-> MDL1 + CSV log)")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_flag(int, SEED), default=None,
                   help="override the config seed")
    p.add_argument("--epochs", type=int, default=None, help="override the config epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank-sweep", help="train across ranks and seeds (-> CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--ranks", required=True, help="comma-separated, e.g. 1,2,3")
    p.add_argument("--seeds", type=_flag(int, (">=", 1)), default=3, help="repetitions per rank")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank_sweep)

    p = sub.add_parser("export-filters", help="write one PGM per filter plus a composite")
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_export_filters)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    p.add_argument("--config", default="", help="check only this config's method")
    p.add_argument("--seed", type=_flag(int, SEED), default=0)
    p.add_argument("--eps", type=_flag(float, (">", 0)), default=1e-5)
    p.add_argument("--tol", type=_flag(float, (">=", 0)), default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # A diverging run ends in NumericalError; numpy's overflow warnings on
        # the way there would only bury that line.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FormatError, ShapeError, DataError, UnsupportedKindError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
