"""Benchmark for hyperadapt: three seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload train_synth64 --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 30 --trace 1 --out bench.json

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced rounds on the same inputs and
reports the per-layer metrics, the tracing overhead (traced against untraced
time) and the share of traced time that no span covers. Every run checks the
library's outputs; a failed check counts in ``failed`` and makes the exit
code 1. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, whose metrics are
the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) list of
BENCHMARK.json; a workload that file does not list reports the ones it has.
``--out`` also writes the full result, host record included, as JSON.

``--workload all`` runs each workload in its own process, one after the
other, and prints every workload's metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train_synth64", "decompose_resnet_bank", "cli_remote_sensing")


def fail(message: str, code: int = 2):
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_library():
    """Import hyperadapt from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import hyperadapt
    except ImportError as exc:
        fail(f"cannot import hyperadapt from {SRC}: {exc}")
    if not os.path.abspath(hyperadapt.__file__).startswith(SRC + os.sep):
        fail(f"hyperadapt was imported from {hyperadapt.__file__}, not from {SRC}")
    return hyperadapt


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host_record(threads_env) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "HYPERADAPT_THREADS": threads_env,
    }


def describe(values: list) -> dict:
    """Median, tail and sample count of one timing.

    The tail is the highest percentile with at least ten samples beyond it,
    or the maximum when there are fewer than twenty samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out["tail"] = ordered[min(n - 1, int(pct / 100 * n))]
        out["tail_label"] = f"p{pct}"
    else:
        out["tail"] = ordered[-1]
        out["tail_label"] = "max"
    return out


def unit_of(name: str) -> str:
    base = name.split(".")[0]
    if base.endswith("_per_s"):
        return "tiles/s"
    return "s" if base.endswith("_s") else "ms"


def run_rounds(seconds, on_round):
    """Repeat rounds until ``seconds`` have passed; at least one round runs."""
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        on_round(r)
        r += 1
    return r


def measure(workload, seed: int, seconds: float, workdir: str, ledger) -> dict:
    """Untraced run: set-up several times, then timed rounds."""
    setups = []
    samples: dict = {}
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        state = workload.setup(seed, workdir, samples)
        setups.append(time.perf_counter() - start)
    workload.warmup(state)
    rounds = run_rounds(seconds, lambda r: workload.round(state, samples, ledger, r))
    workload.check(state, ledger)
    stats = {k: describe(v) for k, v in samples.items()}
    med = {k: v["median"] for k, v in stats.items()}
    workload.finish(state, med)
    named = {key: dict(stats.get(key, {}), value=med[key], unit=unit_of(key))
             for key in workload.metrics}
    named["setup_s"] = dict(describe(setups), value=statistics.median(setups), unit="s")
    return {"rounds": rounds, "named": named, "pass_s": workload.summary(med)}


def trace(workload, seed: int, seconds: float, workdir: str, ledger) -> dict:
    """Traced run: traced set-up, then pairs of untraced and traced rounds on the same inputs.

    The order within a pair alternates, so neither side always runs second.
    """
    import instrument
    from tracer import Tracer, uncovered_share

    tracer = Tracer()
    plain: dict = {}
    traced: dict = {}
    instrument.install(tracer)
    try:
        state = workload.setup(seed, workdir, traced)
    finally:
        tracer.uninstall()
    setup_count = len(tracer.spans)
    workload.warmup(state)
    times = {"plain": 0.0, "traced": 0.0, "uncovered": 0.0}

    def untraced_round(r):
        start = time.perf_counter()
        workload.round(state, plain, ledger, r)
        times["plain"] += time.perf_counter() - start

    def traced_round(r):
        first = len(tracer.spans)
        instrument.install(tracer)
        try:
            start = time.perf_counter()
            workload.round(state, traced, ledger, r)
            end = time.perf_counter()
        finally:
            tracer.uninstall()
        times["traced"] += end - start
        times["uncovered"] += (end - start) * uncovered_share(
            [s for s in tracer.spans[first:] if s.parent is None], start, end)

    def pair(r):
        for step in ((untraced_round, traced_round) if r % 2 == 0
                     else (traced_round, untraced_round)):
            step(r)

    pairs = run_rounds(seconds, pair)
    workload.check(state, ledger)
    metrics = instrument.layer_metrics(tracer.spans, setup_count, pairs)
    metrics["trace.overhead_pct"] = (100.0 * (times["traced"] / times["plain"] - 1.0), "%")
    metrics["trace.uncovered_pct"] = (100.0 * times["uncovered"] / times["traced"], "%")
    return {"rounds": pairs, "layers": metrics,
            "untraced": {k: describe(v) for k, v in plain.items()}}


def run_one(args, spec) -> int:
    threads_env = os.environ.pop("HYPERADAPT_THREADS", None)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, Ledger

    workload = WORKLOADS[args.workload]
    host = host_record(threads_env)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"why: {workload.why}")
    print("host: " + json.dumps(host))
    ledger = Ledger()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        if args.trace:
            result = trace(workload, args.seed, args.seconds, workdir, ledger)
        else:
            result = measure(workload, args.seed, args.seconds, workdir, ledger)
    except Exception:  # noqa: BLE001 - report any library failure and exit non-zero
        traceback.print_exc()
        fail(f"workload {workload.name} raised", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_frac = ledger.failed / ledger.attempted
    if args.trace:
        report = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
        report["trace.peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        for key, st in result["untraced"].items():
            print(f"  untraced {key:<26} {st['median']:.6g} s  (n={st['n']})")
        wanted = spec["per_layer"]
    else:
        report = dict(result["named"])
        report["pass_s"] = {"value": result["pass_s"], "unit": "s"}
        report["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        report["failed_frac"] = {"value": failed_frac, "unit": "ratio"}
        wanted = spec["end_to_end"]
    print(f"rounds: {result['rounds']}")
    for key, entry in report.items():
        extra = ""
        if "n" in entry:
            extra = f"  (median; {entry['tail_label']} {entry['tail']:.6g}; n={entry['n']})"
        print(f"  {key:<34} {entry['value']:.6g} {entry['unit']}{extra}")
    print(f"checks: {ledger.attempted} attempted, {ledger.failed} failed")
    for what in ledger.failures:
        print(f"  FAILED: {what}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "host": host, "rounds": result["rounds"],
                       "metrics": report, "attempted": ledger.attempted,
                       "failed": ledger.failed, "failures": ledger.failures}, f, indent=1)
    missing = [m["name"] for m in wanted if m["name"] not in report]
    if missing and workload.name in {w["name"] for w in spec["workloads"]}:
        fail(f"workload {workload.name} produced no value for {missing}", 1)
    wanted = [m for m in wanted if m["name"] in report]
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": report[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if ledger.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {}
    attempted = failed = 0
    code = 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_all-") as tmp:
        for name in WORKLOAD_NAMES:
            out = os.path.join(tmp, f"{name}.json")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", out],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            code = code or proc.returncode
            if not os.path.exists(out):
                print(f"{name}: no result (exit {proc.returncode})")
                code = code or 1
                continue
            with open(out) as f:
                combined[name] = json.load(f)
            attempted += combined[name]["attempted"]
            failed += combined[name]["failed"]
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                       "workloads": combined}, f, indent=1)
    print(json.dumps({
        "correct": failed == 0 and code == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {f"{w}.{k}": {"value": e["value"], "unit": e["unit"]}
                    for w, r in combined.items() for k, e in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="", help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    spec = load_spec()
    import_library()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
