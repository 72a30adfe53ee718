"""pqaslab benchmark: end-to-end and per-module metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pqaslab checkout; the package is imported from its
``src/``.  Workloads (see workloads.py and README.md): oracle-sweep and
protocol-and-attacks.

A run measures passes over the workload's fixed operation list until
``--seconds`` have elapsed and at least MIN_PASSES passes ran; every pass
starts with an empty scrambler cache and repeats the same inputs.

--trace 0 prints the end-to-end metrics: run_s (median pass), setup_s
(median of SETUP_REPEATS fresh processes that import pqaslab, build the
inputs and run the warm-up) and peak_rss_mb.  On protocol-and-attacks it
also prints the message latencies msg_p50_ms, msg_tail_ms and
session_open_ms.  --trace 1 alternates untraced and traced passes and prints
the per-module metrics of the traced ones, the time outside every traced
function, the tracing overhead, and the message latencies of the untraced
passes.  Outputs are checked after each pass; the last stdout line is the
JSON result.  Spans and a result file with the
provenance block are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1          # pinned, so a run does not depend on the core count or on other tenants
HARNESS_THREADS = 1
MIN_PASSES = 3            # untraced
SETUP_REPEATS = 5
HARD_STOP_S = 140.0       # start no pass that would likely end later than this
TAIL_BEYOND = 10          # the tail is the highest percentile with this many samples beyond it


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _pin_environment() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("PQASLAB_CAP", None)


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in libs:
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(cdll, sym):
                fn = getattr(cdll, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _provenance(workload, seed: int) -> dict:
    import numpy as np
    import pqaslab
    from pqaslab import _streams

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    inputs = json.dumps(workload.inputs, sort_keys=True, default=str).encode()
    return {
        "pqaslab_version": pqaslab.__version__,
        "generator_id": _streams.GENERATOR_ID,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "harness_threads": HARNESS_THREADS,
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": seed,
        "config_sha256": hashlib.sha256(inputs).hexdigest(),
    }


def _setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that set the workload up and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed:\n{proc.stderr}")
    return times


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    latency: list[float] = field(default_factory=list)     # seconds per operation
    results: list = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)
    cache: tuple | None = None                               # build_scrambler.cache_info() after the pass
    layers: dict = field(default_factory=dict)               # Tracer.summary() of a traced pass
    covered: float = 0.0                                     # seconds inside traced functions
    spans: list = field(default_factory=list)


def _run_pass(workload, tracer) -> Pass:
    from pqaslab import ensembles

    rec = Pass(traced=tracer is not None)
    ensembles.build_scrambler.cache_clear()  # every pass starts from an empty scrambler cache
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        for i, op in enumerate(workload.ops):
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception:  # an operation that raises is counted as failed; the pass goes on
                result, error = None, traceback.format_exc()
            rec.latency.append(time.perf_counter() - t0)
            rec.results.append(result)
            rec.errors.append(error)
        rec.wall = time.perf_counter() - start
        rec.cache = ensembles.build_scrambler.cache_info()
    finally:
        if tracer:
            tracer.restore()
    if tracer:
        rec.layers, rec.covered = tracer.summary(), tracer.covered_s()
        rec.spans = [[s[0], s[1] - start, s[2] - start] + s[3:6] for s in tracer.spans]
    return rec


def _check(workload, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages); an op fails on error, failed check or a payload
    that differs from the first pass's."""
    attempted = failed = 0
    messages: list[str] = []
    reference: list[bytes | None] = [None] * len(workload.ops)
    for k, rec in enumerate(passes):
        for i, op in enumerate(workload.ops):
            attempted += 1
            if rec.errors[i]:
                problems = [rec.errors[i]]
            else:
                problems = op.check(rec.results[i])
                digest = op.digest(rec.results[i])
                if reference[i] is None:
                    reference[i] = digest
                elif digest != reference[i]:
                    problems.append("payload differs from the first pass" + (" (traced)" if rec.traced else ""))
            if problems:
                failed += 1
                messages += [f"pass {k} {op.label}: {p}" for p in problems]
    traced = [p for p in passes if p.traced]
    for rec in traced[1:]:
        counts = {n: s["calls"] for n, s in rec.layers.items()}
        if counts != {n: s["calls"] for n, s in traced[0].layers.items()} or rec.cache != traced[0].cache:
            messages.append("call or cache counts differ between traced passes")
            failed += 1
    return attempted, failed, messages


def _tail(values: list[float], per_pass: int) -> tuple[float, float]:
    """(value, level) of the tail percentile.

    The level is fixed: the highest that leaves TAIL_BEYOND samples beyond it
    in a MIN_PASSES run, so it does not move with the number of passes.
    """
    level = 1.0 - TAIL_BEYOND / (MIN_PASSES * per_pass)
    ordered = sorted(values)
    return ordered[math.ceil(level * len(ordered)) - 1], 100.0 * level


def _messages(workload, passes: list[Pass]) -> tuple[dict, list[str]]:
    """Message latency on a key in use and on a fresh key, from untraced passes."""
    untraced = [p for p in passes if not p.traced]
    lat = {kind: [1e3 * p.latency[i] for p in untraced for i, op in enumerate(workload.ops) if op.kind == kind]
           for kind in ("msg", "open")}
    if not lat["msg"]:
        return {name: (0.0, "ms") for name in MESSAGE_METRICS}, []
    tail, level = _tail(lat["msg"], sum(op.kind == "msg" for op in workload.ops))
    p50, opened = statistics.median(lat["msg"]), statistics.median(lat["open"])
    metrics = dict(zip(MESSAGE_METRICS, ((p50, "ms"), (tail, "ms"), (opened, "ms"))))
    notes = [
        f"msg_p50_ms {p50:.6g} ms: median of {len(lat['msg'])} round trips on keys in use",
        f"msg_tail_ms {tail:.6g} ms: p{level:.1f} of {len(lat['msg'])} round trips",
        f"session_open_ms {opened:.6g} ms: median of {len(lat['open'])} first round trips on fresh keys",
    ]
    return metrics, notes


def _end_to_end(workload, passes: list[Pass], setup: list[float]) -> tuple[dict, list[str]]:
    metrics = {
        "run_s": (statistics.median(p.wall for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"run_s: median of {len(passes)} passes {[round(p.wall, 3) for p in passes]}",
        f"setup_s: median of {len(setup)} fresh processes {[round(s, 3) for s in setup]}",
    ]
    return metrics, notes + _messages(workload, passes)[1]


UNITS = {"calls": "count", "self_s": "s", "max_dim": "count"}
MESSAGE_METRICS = ("pqas.message.p50_ms", "pqas.message.tail_ms", "pqas.session_open.p50_ms")


def _per_layer(workload, passes: list[Pass]) -> tuple[dict, list[str]]:
    from spans import TARGETS

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    first = traced[0]
    metrics = {}
    for module, function, _, stats in TARGETS:
        name = f"{module}.{function}"
        for stat in stats:
            if stat == "self_s":
                value = statistics.median(p.layers[name]["self_s"] for p in traced)
            else:
                value = first.layers[name][stat]
            metrics[f"{name}.{stat}"] = (value, UNITS[stat])
    hits, misses = first.cache.hits, first.cache.misses
    metrics["ensembles.build_scrambler.hits"] = (hits, "count")
    metrics["ensembles.build_scrambler.misses"] = (misses, "count")
    metrics["ensembles.build_scrambler.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    traced_wall = statistics.median(p.wall for p in traced)
    metrics["bench.unwrapped_s"] = (statistics.median(p.wall - p.covered for p in traced), "s")
    metrics["bench.trace_overhead_s"] = (traced_wall - statistics.median(p.wall for p in plain), "s")
    messages, message_notes = _messages(workload, passes)
    metrics.update(messages)
    notes = message_notes + [
        f"per-layer: self_s is the median of {len(traced)} traced passes; counts are per pass",
        f"build_scrambler.hit_ratio = {hits} hits / {hits + misses} lookups",
        f"traced pass {traced_wall:.4f} s vs untraced {statistics.median(p.wall for p in plain):.4f} s",
    ]
    return metrics, notes


def _write_outputs(args, prov, passes, metrics, messages) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(out / f"spans-{stem}.jsonl", "w") as fh:
            for k, rec in enumerate(p for p in passes if p.traced):
                for name, start, end, parent, op, dim in rec.spans:
                    fh.write(json.dumps({"pass": k, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "dim": dim}) + "\n")
    result = {"provenance": prov,
              "passes": [{"wall_s": p.wall, "traced": p.traced, "op_s": p.latency} for p in passes],
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}, "failures": messages}
    path = out / f"result-{stem}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "pqaslab" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the root of a pqaslab checkout (src/pqaslab and configs/ not found)", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path.insert(0, str(root / "src"))
    import pqaslab

    if root / "src" not in Path(pqaslab.__file__).resolve().parents:
        print(f"error: pqaslab imported from {pqaslab.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        build(root, args.seed).warm_up()
        return 0

    setup = [] if args.trace else _setup_seconds(args)
    workload = build(root, args.seed)
    workload.warm_up()
    prov = _provenance(workload, args.seed)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    passes: list[Pass] = []
    begin = time.perf_counter()
    min_passes = 2 if args.trace else MIN_PASSES
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(_run_pass(workload, tracer if traced else None))
        elapsed = time.perf_counter() - begin
        if len(passes) >= min_passes and elapsed >= args.seconds:
            break
        if len(passes) >= 1 + args.trace and elapsed + passes[-1].wall > HARD_STOP_S:
            break
    measured = time.perf_counter() - begin

    attempted, failed, messages = _check(workload, passes)
    if args.trace:
        metrics, notes = _per_layer(workload, passes)
    else:
        metrics, notes = _end_to_end(workload, passes, setup)
    path = _write_outputs(args, prov, passes, metrics, messages)

    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes in {measured:.1f} s; "
          f"{attempted} operations, {failed} failed, fail_ratio {failed / attempted:g}")
    for msg in messages:
        print("FAIL " + msg)
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"result file {path.relative_to(root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
