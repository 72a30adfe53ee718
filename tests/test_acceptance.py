"""Acceptance suite: one test per release-gating criterion.

Each test drives the same check the `pqaslab selftest` command runs and
prints its pass/fail line plus the per-check details, so a pytest run
documents every tolerance alongside the verdict, and the config of every
harness run a criterion reads.
"""

import json

from pqaslab import harness, selftest


def _run(index):
    result = selftest.run_criterion(index)
    # every printed config is one `pqaslab run` would accept
    for detail in result.details:
        if detail.startswith("config "):
            harness.validate_config(json.loads(detail[len("config "):]))
    print()
    print(result.line())
    for detail in result.details:
        print("   ", detail)
    assert result.passed, "\n".join([result.line()] + result.details)


def test_criterion_1_completeness():
    _run(1)


def test_criterion_2_closeness_scaling():
    _run(2)


def test_criterion_3_weingarten():
    _run(3)


def test_criterion_4_auth_averages():
    _run(4)


def test_criterion_5_fidelity_recovery():
    _run(5)


def test_criterion_6_cpa_separation():
    _run(6)


def test_criterion_7_qubit_count():
    _run(7)


def test_criterion_8_vprdm():
    _run(8)


def test_criterion_9_efi():
    _run(9)


def test_criterion_10_determinism():
    _run(10)
