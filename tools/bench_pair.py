"""Before/after benchmark of two pqaslab checkouts, written as one BENCH_*.json.

    python3 tools/bench_pair.py --parent DIR --change DIR --out BENCH_label.json
        --extra-seed SEED --note TEXT

Each checkout's ``perfbench/run.py`` runs from that checkout's root for
BENCHMARK.json's ``run_seconds``, the parent and the change alternately (the
side that runs first alternates per pair):

- ``end_to_end``: PAIRS pairs per workload at ``--trace 0`` and SEED;
- ``end_to_end_extra``: EXTRA_PAIRS pairs at ``--extra-seed``, a seed the
  change was not tuned on;
- ``per_layer``: TRACE_PAIRS pairs at ``--trace 1``;
- ``scan_memory``: the tracemalloc peak and wall time of ``harness.run`` on
  the configs in SCAN_POINTS (security scans, oracle-sweep's z = 6
  local-depolarizing auth sweep, and two keyed column builds),
  SCAN_PAIRS pairs, each run in a fresh process.

Each value is the median over the pairs, with every run listed in pair
order and the quartiles (``statistics.quantiles``, inclusive method).  An
end-to-end metric of BENCHMARK.json is marked ``"unresolved": true`` when
either side has fewer than PAIRS runs or the parent's interquartile range
exceeds the metric's bound times the parent's median, unless every change
run beats every parent run: its runs then are too few or spread too widely
to tell a change within the bound from none.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("oracle-sweep", "protocol-and-attacks")
PAIRS, SEED, EXTRA_PAIRS, TRACE_PAIRS, SCAN_PAIRS = 10, 1, 3, 2, 3
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}

# (label, config): the m = 2 point of configs/security_scan.json, the
# largest product scan the qubit cap admits, a joint (GHZ) input, a keyed
# (pru_only) scan, which builds every trial key twice, the largest
# local-depolarizing auth sweep of perfbench's oracle-sweep, and the keyed
# column builds of a z = 8 vprdm (each trial's right and wrong key) and of
# an EFI ensemble of 128 keys, run through the harness so that the probe
# reads only the config format, not the signatures
_SCAN = {"experiment": "security-scan", "n": 1, "l": 1, "t": 2, "seed": 11}
SCAN_POINTS = (
    ("security_scan.json m=2 point", {**_SCAN, "m": 2, "trials": 2000}),
    ("z=5 t=2 scan, 40 trials", {**_SCAN, "m": 3, "trials": 40}),
    ("joint input m=2 q=1, 200 trials", {**_SCAN, "m": 2, "q": 1, "trials": 200}),
    ("pru_only m=1, 200 trials", {**_SCAN, "m": 1, "trials": 200, "mode": "pru_only"}),
    (
        "auth-sweep local_depolarizing z=6, 100 trials",
        {"experiment": "auth-sweep", "n": 2, "l": 2, "m": 2, "trials": 100, "seed": 104,
         "channel": {"kind": "local_depolarizing", "p": 0.2}},
    ),
    ("vprdm n=8 m=1 pru_only, 4 trials",
     {"experiment": "vprdm", "n": 8, "m": 1, "t": 2, "trials": 4, "mode": "pru_only"}),
    ("efi n=4 lambda=7 keyed haar_exact",
     {"experiment": "efi", "n": 4, "m0": 1, "gamma": 0.67, "c": 0.33, "lambda_eff": 7, "mode": "haar_exact"}),
)

SCAN_PROBE = """
import json, sys, time, tracemalloc
from pqaslab import harness
config = json.loads(sys.argv[1])
tracemalloc.start()
start = time.perf_counter()
harness.run(config)
wall = time.perf_counter() - start
print(json.dumps({"peak_mb": tracemalloc.get_traced_memory()[1] / 1e6, "wall_s": wall}))
"""


def _env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _perfbench(root: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True, check=True).stdout
    result = _last_json(out)
    prov = next(line for line in out.splitlines() if line.startswith("provenance "))
    result["provenance"] = json.loads(prov.split(" ", 1)[1])
    return result


def _scan_probe(root: Path, config: dict) -> dict:
    cmd = [sys.executable, "-c", SCAN_PROBE, json.dumps(config)]
    return _last_json(subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True, check=True).stdout)


def _alternate(sides: dict, pairs: int, run) -> dict:
    """run(root) for each side, ``pairs`` times, the first side alternating."""
    runs = {side: [] for side in sides}
    order = list(sides)
    for pair in range(pairs):
        for side in order if pair % 2 == 0 else order[::-1]:
            runs[side].append(run(sides[side]))
    return runs


def _summary(parent: list[float], change: list[float], unit: str, metric: dict | None = None) -> dict:
    """Medians, runs and quartiles of both sides; with an end-to-end ``metric``
    of BENCHMARK.json, also whether its runs resolve a change within its bound."""

    def quartiles(values):
        return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")[::2]]

    mid_p, mid_c = statistics.median(parent), statistics.median(change)
    q_p = quartiles(parent)
    summary = {
        "unit": unit,
        "parent": round(mid_p, 4),
        "change": round(mid_c, 4),
        "change_pct": round(100 * (mid_c - mid_p) / mid_p, 1) if mid_p else None,
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        "parent_iqr": round(q_p[1] - q_p[0], 4),
        "parent_quartiles": q_p,
        "change_quartiles": quartiles(change),
    }
    if metric:
        lower = metric["better"] == "lower"
        beats = max(change) < min(parent) if lower else min(change) > max(parent)
        # fewer than PAIRS runs a side cannot show the run-to-run spread
        spread = min(len(parent), len(change)) < PAIRS or q_p[1] - q_p[0] > metric["bound"] * mid_p
        summary["unresolved"] = spread and not beats
    return summary


def _workload_block(runs: dict) -> dict:
    names = runs["parent"][0]["metrics"]
    return {
        "pairs": len(runs["parent"]),
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "metrics": {
            name: _summary(*[[r["metrics"][name]["value"] for r in runs[side]] for side in ("parent", "change")],
                           names[name]["unit"], END_TO_END.get(name))
            for name in names
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--extra-seed", type=int, required=True, help="a seed the change was not tuned on")
    p.add_argument("--note", required=True, help="what the change does")
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    machine = {}

    def bench(seed, trace, pairs):
        blocks = {}
        for w in WORKLOADS:
            runs = _alternate(sides, pairs, lambda root: _perfbench(root, w, seed, trace))
            machine.update(runs["parent"][0]["provenance"])
            blocks[w] = _workload_block(runs)
        return blocks

    result = {
        "change": args.note,
        "machine": machine,
        "method": (
            f"python3 tools/bench_pair.py --extra-seed {args.extra_seed}: {PAIRS} pairs at seed {SEED}, "
            f"{EXTRA_PAIRS} at seed {args.extra_seed}, {TRACE_PAIRS} traced, {SCAN_PAIRS} per scan point; "
            f"perfbench/run.py --seconds {RUN_SECONDS} from the root of each checkout, parent and change "
            "alternately, one BLAS thread"
        ),
        "end_to_end": bench(SEED, 0, PAIRS),
        "end_to_end_extra": {f"seed {args.extra_seed}": bench(args.extra_seed, 0, EXTRA_PAIRS)},
        "per_layer": bench(SEED, 1, TRACE_PAIRS),
        "scan_memory": {},
    }
    for label, config in SCAN_POINTS:
        runs = _alternate(sides, SCAN_PAIRS, lambda root: _scan_probe(root, config))
        result["scan_memory"][label] = {
            "tracemalloc_peak": _summary(*[[r["peak_mb"] for r in runs[s]] for s in ("parent", "change")], "MB"),
            "wall_s": _summary(*[[r["wall_s"] for r in runs[s]] for s in ("parent", "change")], "s"),
        }
    for key in ("workload", "seed", "config_sha256"):
        machine.pop(key)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
