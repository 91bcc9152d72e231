"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
``setup_s``), then repeats ``round`` until the run's time is spent, timing
each operation into ``samples``; ``check`` verifies the outputs once the
rounds are done, and ``summary`` gives ``pass_s``, the time one pass over
the workload's operations takes (the sum of their medians).
The library is driven only through its public functions and the in-process
CLI, and always through module attributes looked up at call time, so the
traced run sees every call.

Operations run serially in this one process (``HYPERADAPT_THREADS`` unset).
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import os
import time

import numpy as np

from hyperadapt import cli, data, decomp, filteradapt, tensor
from hyperadapt.nn import conv, layers, model as nnmodel

# The package re-exports the function ``train`` under the submodule's name.
nntrain = importlib.import_module("hyperadapt.nn.train")

METHODS = ("cp", "tucker", "reduce", "scratch")
LOG_HEADER = "epoch,lr,train_loss,test_loss,test_accuracy"
FROZEN = ("first.x", "first.y", "first.core", "first.bias", "mid.weight",
          "first.rgb_weight", "first.rgb_bias")
TOL = 1e-9


class Ledger:
    """Counts operations and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self) -> None:
        self.attempted += 1

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def timed(samples: dict, key: str, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    samples.setdefault(key, []).append(time.perf_counter() - start)
    return result


def _finite(*values) -> bool:
    return all(np.isfinite(v) for v in values)


class Workload:
    """Defaults for the hooks a workload may leave out."""

    name = ""
    why = ""
    setup_repeats = 3
    metrics: tuple = ()

    def warmup(self, state) -> None:
        """Untimed work between the timed set-ups and the first round."""

    def finish(self, state, med: dict) -> None:
        """Derive metrics that are not timings from the medians."""

    def summary(self, med: dict) -> float:
        """``pass_s``: the sum of the medians of the workload's operations."""
        return sum(med[k] for k in self.metrics)


# ---------------------------------------------------------------- train_synth64

class TrainSynth64(Workload):
    """The paper's desk-scale protocol: one epoch per method per round."""

    name = "train_synth64"
    why = ("nn.conv and nn.layers do nearly all the work; the noise-free bank is "
           "exactly rank 1, so ALS stops after 2 sweeps and decomp barely shows")
    setup_repeats = 3
    metrics = tuple(f"epoch_s.{m}" for m in METHODS)
    LR0, GAMMA, BATCH = 0.01, 0.95, 128

    def setup(self, seed: int, workdir: str, samples: dict):
        train_ts, test_ts = data.synth_spectral_task(64, 4, 200, seed=seed, tile=16,
                                                     noise=0.1, test_samples=200)
        train_ts = data.normalize(train_ts)
        test_ts = data.apply_stats(test_ts, train_ts.stats)
        bank = data.synth_filter_bank(8, 5, seed=seed)
        models = {}
        for method in METHODS:
            if method in (decomp.CP, decomp.TUCKER):
                decomps, _ = decomp.decompose_bank(bank, method, 2, decomp.CpOptions(seed=seed))
                adapted = filteradapt.adapt(decomps, 64, init="interp", seed=seed,
                                            bias=bank.bias)
                first = nnmodel.first_layer_from_adapted(adapted)
            elif method == "reduce":
                first = layers.build_reduce(64, bank, rank=2, seed=seed)
            else:
                first = layers.build_scratch(64, bank, seed=seed)
            models[method] = nnmodel.build_model(first, 4, seed=seed)
        frozen = {m: {p.name: p.value.tobytes() for p in mdl.params() if p.name in FROZEN}
                  for m, mdl in models.items()}
        return {"seed": seed, "train": train_ts, "test": test_ts, "models": models,
                "frozen": frozen, "rows": {m: [] for m in METHODS}, "epoch": 0}

    def warmup(self, state):
        """One untimed epoch per method; its loss is the first the loss check compares."""
        self._epoch(state, None)

    def _epoch(self, state, samples):
        epoch = state["epoch"]
        cfg = nntrain.TrainConfig(lr0=self.LR0 * self.GAMMA ** epoch, gamma=self.GAMMA,
                                  batch_size=self.BATCH, epochs=1,
                                  seed=state["seed"] * 1000 + epoch)
        tr, te = state["train"], state["test"]
        for method in METHODS:
            args = (state["models"][method], tr.tiles, tr.labels, te.tiles, te.labels, cfg)
            if samples is None:
                rows = nntrain.train(*args)
            else:
                rows = timed(samples, f"epoch_s.{method}", nntrain.train, *args)
            state["rows"][method].extend(rows)
        state["epoch"] += 1

    def round(self, state, samples, ledger, r: int):
        for _ in METHODS:
            ledger.op()
        self._epoch(state, samples)

    def check(self, state, ledger):
        tr = state["train"]
        batch = tr.tiles[:self.BATCH]
        for method, mdl in state["models"].items():
            rows = state["rows"][method]
            ledger.check(all(_finite(r[2], r[3]) for r in rows),
                         f"{method}: non-finite loss")
            ledger.check(rows[-1][2] < rows[0][2],
                         f"{method}: train loss did not fall ({rows[0][2]} -> {rows[-1][2]})")
            now = {p.name: p.value.tobytes() for p in mdl.params() if p.name in FROZEN}
            ledger.check(now == state["frozen"][method], f"{method}: a frozen block changed")
            if method in (decomp.CP, decomp.TUCKER):
                first = mdl.first
                dense = conv.conv2d(batch, first.dense_bank(),
                                    first.bias.value if first.bias is not None else None)
                diff = float(np.abs(first.forward(batch) - dense).max())
                ledger.check(diff <= TOL, f"{method}: separable forward differs from "
                                          f"dense conv by {diff:.3e}")


# ---------------------------------------------------------------- decompose_resnet_bank

class DecomposeResnetBank(Workload):
    """CP and Tucker decomposition of 64x3x7x7 banks with ResNet conv1 geometry.

    ALS stops when the error settles, and how soon depends on the filters,
    so ``decompose_s.cp`` differs between seeds by more than between runs of
    one seed: compare a change with its parent on the same seed.
    """

    name = "decompose_resnet_bank"
    why = ("ALS in decomp, linalg and tensor does all the work and no nn code runs; "
           "the bank is noisy, as pretrained filters are not exactly low-rank")
    setup_repeats = 15
    metrics = ("decompose_s.cp", "decompose_s.tucker")
    BANKS = 4  # rounds cycle through this many seeded banks
    TUCKER_REPEATS = 10  # one Tucker bank takes milliseconds; repeat it for a steady median

    def setup(self, seed: int, workdir: str, samples: dict):
        banks = [data.synth_filter_bank(64, 7, seed=seed * 1000 + i, noise=0.05)
                 for i in range(self.BANKS)]
        return {"banks": banks, "results": []}

    def round(self, state, samples, ledger, r: int):
        bank = state["banks"][r % self.BANKS]
        ledger.op()
        cp = timed(samples, "decompose_s.cp", decomp.decompose_bank, bank, decomp.CP, 2)
        tk = []
        for _ in range(self.TUCKER_REPEATS):
            ledger.op()
            tk.append(timed(samples, "decompose_s.tucker", decomp.decompose_bank,
                            bank, decomp.TUCKER, 2))
        state["results"].append((bank, cp, tk))

    def check(self, state, ledger):
        for bank, (cp, cp_err), tk_runs in state["results"]:
            tk, tk_err = tk_runs[0]
            ledger.check(all(np.array_equal(e, tk_err) for _, e in tk_runs),
                         "repeated Tucker decompositions of one bank differ")
            w = bank.weights
            for o in range(w.shape[0]):
                norm = np.linalg.norm(w[o])
                for kind, d, err in (("cp", cp[o], cp_err[o]), ("tucker", tk[o], tk_err[o])):
                    redo = np.linalg.norm(w[o] - d.reconstruct()) / norm
                    ledger.check(abs(redo - d.relative_error) <= TOL and err == d.relative_error,
                                 f"{kind} filter {o}: reported error {err:.12g} != {redo:.12g}")
                ledger.check(cp_err[o] >= tk_err[o] - TOL,
                             f"filter {o}: CP error {cp_err[o]:.3e} below Tucker {tk_err[o]:.3e}")


# ---------------------------------------------------------------- cli_remote_sensing

def make_cube(seed: int, bands: int = 103, size: int = 64, classes: int = 6,
              noise: float = 0.05, tile: int = 11, stride: int = 3, unlabeled: int = 32):
    """Seeded stand-in for a remote-sensing scene (Pavia has 103 bands).

    Labels are Voronoi regions around seeded centres; each labelled pixel
    carries its class's spectral signature (a Gaussian bump over the bands)
    at a random amplitude, plus white noise. Exactly ``unlabeled`` tile
    centres are marked -1, so tiling keeps the same number of tiles for
    every seed (292 of 324 for the defaults).
    """
    rng = np.random.default_rng([seed, 103])
    centres = rng.uniform(0, size, (classes, 2))
    yy, xx = np.mgrid[0:size, 0:size]
    dist = (yy[..., None] - centres[:, 0]) ** 2 + (xx[..., None] - centres[:, 1]) ** 2
    labels = dist.argmin(axis=-1).astype(np.int32)
    grid = np.arange(bands)
    peaks = (np.arange(classes) + 0.5) * bands / classes
    spectra = np.exp(-((grid[None, :] - peaks[:, None]) ** 2) / (2 * (bands / (3 * classes)) ** 2))
    amp = rng.uniform(0.8, 1.2, (size, size))
    cube = spectra[labels].transpose(2, 0, 1) * amp + noise * rng.standard_normal((bands, size, size))
    half = tile // 2
    pos = np.arange(0, size - tile + 1, stride) + half
    cy, cx = np.meshgrid(pos, pos, indexing="ij")
    drop = rng.choice(cy.size, unlabeled, replace=False)
    labels[cy.ravel()[drop], cx.ravel()[drop]] = -1
    return data.HyperCube(cube, labels)


class CliRemoteSensing(Workload):
    """A 103-band cube through the file formats and every CLI command."""

    name = "cli_remote_sensing"
    why = ("103 bands make the pointwise stages dominate and a 70% test split weighs "
           "evaluation; data, io and cli do their only real work here")
    setup_repeats = 5
    metrics = ("prepare_s", "cli_train_s.cp", "cli_train_s.scratch", "rank_sweep_s",
               "cli_misc_s", "eval_tiles_per_s")
    TILES = 292
    EPOCHS = 3

    def setup(self, seed: int, workdir: str, samples: dict):
        """Inputs and files for the CLI: bank and configs, then the cube prepared as tiles."""
        p = {k: os.path.join(workdir, v) for k, v in {
            "cube": "scene.hsc", "train": "train.tls", "test": "test.tls",
            "bank": "bank.tns", "bias": "bias.tns", "dcp": "bank.dcp", "adp": "layer.adp",
            "cfg_cp": "cp.cfg", "cfg_scratch": "scratch.cfg", "sweep": "sweep.csv",
            "filters": "filters"}.items()}
        cube = make_cube(seed)
        bank = data.synth_filter_bank(8, 5, seed=seed)
        tensor.save_tensor(bank.weights, p["bank"])
        tensor.save_tensor(bank.bias, p["bias"])
        for method in ("cp", "scratch"):
            p[f"model_{method}"] = os.path.join(workdir, f"{method}.mdl1")
            p[f"log_{method}"] = os.path.join(workdir, f"{method}_log.csv")
            with open(p[f"cfg_{method}"], "w") as f:
                f.write(f"method = {method}\nrank = 2\nepochs = {self.EPOCHS}\nseed = {seed}\n"
                        f"train_tiles = {p['train']}\ntest_tiles = {p['test']}\n"
                        f"bank = {p['bank']}\nbank_bias = {p['bias']}\n"
                        f"out_model = {p[f'model_{method}']}\nout_log = {p[f'log_{method}']}\n")
        state = {"seed": seed, "cube": cube, "paths": p}
        state["prepared"] = timed(samples, "prepare_s", self._prepare, state)
        return state

    @staticmethod
    def _prepare(state):
        """Cube to TLS1 tile files, as a user prepares a scene."""
        p = state["paths"]
        data.save_cube(state["cube"], p["cube"])
        cube = data.load_cube(p["cube"])
        tiles = data.tile_remote_sensing(cube, 11, 3, resize_to=16)
        train_ts, test_ts = data.split_tiles(tiles, 0.3, seed=state["seed"])
        train_ts = data.normalize(train_ts)
        test_ts = data.apply_stats(test_ts, train_ts.stats)
        data.save_tiles(train_ts, p["train"])
        data.save_tiles(test_ts, p["test"])
        return {"cube": cube, "tiles": tiles, "train": train_ts, "test": test_ts}

    @staticmethod
    def _cli(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def round(self, state, samples, ledger, r: int):
        p = state["paths"]
        misc = samples.setdefault("cli_misc_s", [])
        codes = {}
        start = time.perf_counter()
        codes["decompose"] = self._cli(["decompose", "--bank", p["bank"], "--bias", p["bias"],
                                        "--kind", "tucker", "--rank", "2", "--out", p["dcp"]])
        codes["adapt"] = self._cli(["adapt", "--decomp", p["dcp"], "--channels", "103",
                                    "--bias", p["bias"], "--out", p["adp"]])
        misc_s = time.perf_counter() - start
        for method in ("cp", "scratch"):
            codes[f"train {method}"] = timed(samples, f"cli_train_s.{method}", self._cli,
                                             ["train", "--config", p[f"cfg_{method}"]])
        codes["rank-sweep"] = timed(samples, "rank_sweep_s", self._cli,
                                    ["rank-sweep", "--config", p["cfg_cp"], "--ranks", "1,2",
                                     "--seeds", "1", "--out", p["sweep"]])
        start = time.perf_counter()
        codes["export-filters"] = self._cli(["export-filters", "--model", p["model_cp"],
                                             "--out-dir", p["filters"]])
        misc.append(misc_s + time.perf_counter() - start)
        for _ in codes:
            ledger.op()
        # Evaluate the trained cp model on the test tiles exactly as the CLI saw them.
        cli_train = data.normalize(data.load_tiles(p["train"]))
        cli_test = data.apply_stats(data.load_tiles(p["test"]), cli_train.stats)
        mdl, _ = nnmodel.load_model(p["model_cp"])
        ledger.op()
        loss, acc = timed(samples, "eval_s", nntrain.evaluate, mdl, cli_test.tiles,
                          cli_test.labels)
        state.setdefault("codes", []).append(codes)
        state["n_test"] = len(cli_test)
        state["eval"] = (loss, acc)

    def check(self, state, ledger):
        """Checks every CLI exit code, the prepared files, and the last round's results."""
        prep, p = state["prepared"], state["paths"]
        for codes in state["codes"]:
            for what, code in codes.items():
                ledger.check(code == 0, f"hyperadapt {what} returned {code}")
        cube = data.load_cube(p["cube"])
        src = state["cube"]
        ledger.check(np.array_equal(cube.data, src.data.astype(np.float32))
                     and np.array_equal(cube.labels, src.labels), "HSC1 cube did not round-trip")
        ledger.check(len(prep["tiles"]) == self.TILES,
                     f"tiling kept {len(prep['tiles'])} tiles, expected {self.TILES}")
        for split in ("train", "test"):
            back = data.load_tiles(p[split])
            ledger.check(np.array_equal(back.tiles, prep[split].tiles)
                         and np.array_equal(back.labels, prep[split].labels),
                         f"TLS1 {split} tiles did not round-trip")
        kind, decomps, errors = decomp.load_decomps(p["dcp"])
        ledger.check(kind == decomp.TUCKER and len(decomps) == 8 and _finite(*errors),
                     "DCP1 file did not load back")
        layer = filteradapt.load_adapted(p["adp"])
        ledger.check(layer.new_channels == 103 and layer.out_channels == 8,
                     "ADP1 file did not load back")
        for method in ("cp", "scratch"):
            mdl, meta = nnmodel.load_model(p[f"model_{method}"])
            ledger.check(meta.get("method") == method and mdl.in_channels == 103,
                         f"MDL1 {method} model did not load back")
            with open(p[f"log_{method}"]) as f:
                lines = f.read().splitlines()
            rows = list(csv.reader(lines[1:]))
            ledger.check(lines[0] == LOG_HEADER, f"{method} log header is {lines[0]!r}")
            ledger.check(len(rows) == self.EPOCHS
                         and all(_finite(float(r[2]), float(r[3])) for r in rows),
                         f"{method} log has missing or non-finite losses")
            if method == "cp":
                ledger.check(abs(float(rows[-1][4]) - state["eval"][1]) <= TOL,
                             "evaluate() disagrees with the CLI's final test accuracy")
        with open(p["sweep"]) as f:
            sweep = f.read().splitlines()
        ledger.check(sweep[0] == "rank,mean_accuracy,sem,trainable_params" and len(sweep) == 3,
                     "rank-sweep CSV is malformed")
        names = sorted(os.listdir(p["filters"]))
        ok = names == ["composite.pgm"] + [f"filter_{o:03d}.pgm" for o in range(8)]
        for name in names if ok else ():
            with open(os.path.join(p["filters"], name), "rb") as f:
                ok = ok and f.read(2) == b"P5"
        ledger.check(ok, "export-filters did not write 8 PGM filters and a composite")
        ledger.check(_finite(*state["eval"]), "evaluate() returned a non-finite loss")

    def finish(self, state, med: dict) -> None:
        med["eval_tiles_per_s"] = state["n_test"] / med["eval_s"]

    def summary(self, med: dict) -> float:
        return sum(med[k] for k in self.metrics if k != "eval_tiles_per_s") + med["eval_s"]


WORKLOADS = {w.name: w for w in (TrainSynth64(), DecomposeResnetBank(), CliRemoteSensing())}
