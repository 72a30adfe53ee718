"""``tools/bench_pair.py``'s verdict on whether an end-to-end metric's runs
resolve a change within its BENCHMARK.json bound."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

RUN_S = bench_pair.END_TO_END["run_s"]


def runs(center, count):
    # a spread of 1 % about center, well inside run_s's 25 % bound
    return [center * (1 + 0.01 * ((i % 3) - 1)) for i in range(count)]


@pytest.mark.parametrize("count", [bench_pair.PAIRS, bench_pair.PAIRS + 2])
def test_tight_full_runs_resolve(count):
    assert not bench_pair._summary(runs(1.0, count), runs(1.3, count), "s", RUN_S)["unresolved"]


@pytest.mark.parametrize("count", [2, 3, bench_pair.PAIRS - 1])
def test_too_few_runs_are_unresolved(count):
    # a tight parent spread over fewer than PAIRS runs does not show the noise
    assert bench_pair._summary(runs(1.0, count), runs(1.3, count), "s", RUN_S)["unresolved"]


def test_too_few_runs_resolve_when_every_change_run_beats_every_parent_run():
    assert not bench_pair._summary(runs(1.0, 3), runs(0.5, 3), "s", RUN_S)["unresolved"]


def test_wide_parent_spread_is_unresolved():
    parent = [1.0, 0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9]
    assert bench_pair._summary(parent, runs(1.0, bench_pair.PAIRS), "s", RUN_S)["unresolved"]


def test_other_metrics_carry_no_verdict():
    assert "unresolved" not in bench_pair._summary(runs(1.0, 3), runs(1.0, 3), "MB")
