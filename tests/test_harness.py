"""Config validation, experiment dispatch, serialization and determinism."""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqaslab import attacks, cli, ensembles, harness, moments, pqas, qcore, selftest
from pqaslab.ensembles import MODES
from pqaslab.harness import ConfigError, ResultRecord
from pqaslab.qcore import QubitPartition

import reference


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError) as err:
            harness.validate_config({"experiment": "nope"})
        assert err.value.field == "experiment"

    @pytest.mark.parametrize("field,value", [("mode", "composed"), ("l", 1)])
    def test_cpa_reads_no_key_fields(self, field, value):
        # the left-or-right game draws only pads and coins
        with pytest.raises(ConfigError, match="cpa does not read it") as err:
            harness.validate_config({"experiment": "cpa", field: value})
        assert err.value.field == field

    def test_invalid_n(self):
        with pytest.raises(ConfigError) as err:
            harness.validate_config({"experiment": "cpa", "n": 0})
        assert err.value.field == "n"

    def test_unknown_field(self):
        with pytest.raises(ConfigError) as err:
            harness.validate_config({"experiment": "cpa", "bogus": 1})
        assert err.value.field == "bogus"

    def test_channel_must_have_kind(self):
        with pytest.raises(ConfigError) as err:
            harness.validate_config({"experiment": "auth-sweep", "channel": {}})
        assert err.value.field == "channel"

    @pytest.mark.parametrize(
        "config,field",
        [
            ({"experiment": "cpa", "n": "2"}, "n"),
            ({"experiment": "efi", "delta": [0.1, "x"]}, "delta"),
            ({"experiment": "wg-selftest", "trials": True}, "trials"),
            ({"experiment": "cpa", "t": [2, 2.5]}, "t"),
            ({"experiment": "cpa", "seed": "7"}, "seed"),
            ({"experiment": "auth-sweep", "channel": {"kind": "depolarizing", "p": [0.1, None]}}, "channel"),
            ([1, 2], "config"),
            ({"experiment": "wg-selftest", "channel": {"kind": "identity", "bogus": 1}}, "channel"),
            ({"experiment": "cpa", "seed": 2**63}, "seed"),
            ({"experiment": "cpa", "trials": [100, 2**127]}, "trials"),
            ({"experiment": "qubit-count", "mode": "bogus", "trials": 2, "shots": 20}, "mode"),
            ({"experiment": "wg-selftest", "mode": "bogus"}, "mode"),
            ({"experiment": "qubit-count", "s_max": 0, "trials": 1}, "s_max"),
            ({"experiment": "efi", "c": [0.1, 10**400]}, "c"),
            ({"experiment": "qubit-count", "delta": float("nan")}, "delta"),
            ({"experiment": "auth-sweep", "channel": {"kind": "depolarizing", "p": float("inf")}}, "channel"),
        ],
    )
    def test_field_types(self, config, field):
        with pytest.raises(ConfigError) as err:
            harness.validate_config(config)
        assert err.value.field == field

    def test_sweep_expansion(self):
        cfg = harness.validate_config(
            {
                "experiment": "auth-sweep",
                "n": [2, 3],
                "m": [1, 2],
                "channel": {"kind": "depolarizing", "p": [0.1, 0.2]},
            }
        )
        points = harness.expand_points(cfg)
        assert len(points) == 2 * 2 * 2
        assert len({(p.n, p.m, p.channel_p) for p in points}) == 8

    def test_point_seed_distinct_and_stable(self):
        cfg = harness.validate_config({"experiment": "wg-selftest", "n": [2, 3], "seed": 5})
        points = harness.expand_points(cfg)
        seeds = [harness.point_seed(p) for p in points]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [harness.point_seed(p) for p in harness.expand_points(cfg)]

    @pytest.mark.parametrize("name", [f.name for f in fields(harness.ExperimentPoint)])
    def test_point_seed_reads_every_field(self, name):
        # a field left out of the seed would share random streams across points
        cfg = harness.validate_config({"experiment": "auth-sweep", "channel": {"kind": "depolarizing", "p": 0.1}})
        point = harness.expand_points(cfg)[0]
        value = getattr(point, name)
        changed = value + "x" if isinstance(value, str) else value + 1
        assert harness.point_seed(replace(point, **{name: changed})) != harness.point_seed(point)


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
# JSON integers are unbounded but hypothesis favours small ones, so the edges
# of the 64-bit range and of the 128-bit seed encoding are drawn explicitly
ANY_INT = st.integers() | st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**127, -(2**127) - 1, 2**200])
JSON_SCALARS = st.none() | st.booleans() | ANY_INT | st.floats(allow_nan=False, allow_infinity=False) | st.text()
# st.recursive alone rarely yields a bare scalar, so offer scalars as their own branch
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


class TestConfigProperty:
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=[p.stem for p in SHIPPED_CONFIGS])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_one_field_replaced(self, path, data):
        # every shipped field, plus the channel's own fields
        config = json.loads(path.read_text())
        fields = sorted(config) + ["channel.kind", "channel.p"]
        field = data.draw(st.sampled_from(fields), label="field")
        value = data.draw(JSON_VALUES, label="value")
        if field.startswith("channel."):
            config["channel"] = {**config.get("channel", {"kind": "identity"}), field[len("channel."):]: value}
        else:
            config[field] = value
        try:
            points = harness.expand_points(harness.validate_config(config))
        except ConfigError:
            return
        for point in points:
            harness.point_seed(point)


# One tiny base config per experiment: every valid point of each runs in well
# under a second.  The property test below keeps the counts small and draws
# the sizes from small values plus sentinels far past the qubit cap.
TINY_CONFIGS = {
    "wg-selftest": {"n": 1, "t": 2},
    "security-scan": {"n": 1, "t": 1, "trials": 20},
    "auth-sweep": {"n": 1, "trials": 100},
    "cpa": {"n": 1, "t": 2, "trials": 2},
    "qubit-count": {"n": 1, "s_max": 1, "trials": 1, "shots": 20},
    "multistate": {"n": 1, "trials": 1, "copies": 2},
    "decoy": {"n": 1, "t": 1},
    "vprdm": {"n": 2, "m": 1, "t": 1, "trials": 2},
    "efi": {"n": 3, "m0": 0, "lambda_eff": 1},
}
HUGE = st.sampled_from([11, 64, 100000, 2**62])
SMALL_OR_HUGE = {
    "n": st.integers(0, 2) | HUGE,
    "l": st.integers(0, 1) | HUGE,
    "m": st.integers(0, 1) | HUGE,
    "t": st.integers(0, 2) | HUGE,
    "q": st.integers(0, 1) | HUGE,
    "s_max": st.integers(0, 2) | HUGE,
    "m0": st.integers(0, 2) | HUGE,
    "lambda_eff": st.integers(0, 2) | HUGE,
    "trials": st.sampled_from([1, 2, 20, 100]),
    "shots": st.sampled_from([1, 20]),
    "copies": st.sampled_from([1, 2, 4]),
}
CHANNEL_P = st.sampled_from([0.0, 0.3, 1.0, -0.5, 1.5, 2**62])


class TestRunProperty:
    @pytest.mark.parametrize("experiment", sorted(TINY_CONFIGS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_tiny_point_runs_or_exits_2(self, experiment, data, tmp_path_factory):
        # only the fields the experiment reads under its channel kind are drawn, so no
        # example stops at the unread-field rule
        config = {"experiment": experiment, **TINY_CONFIGS[experiment]}
        kind = "identity"
        if "channel_kind" in harness.EXPERIMENTS[experiment].reads.split():
            kind = data.draw(st.sampled_from(harness.CHANNEL_KINDS), label="channel.kind")
            config["channel"] = {"kind": kind}
            if kind in harness._P_KINDS:
                config["channel"]["p"] = data.draw(CHANNEL_P, label="channel.p")
        reads = harness._read_fields(experiment, kind)
        for field, values in SMALL_OR_HUGE.items():
            value = data.draw(st.none() | values, label=field) if field in reads else None
            if value is not None:
                config[field] = value
        path = tmp_path_factory.mktemp("tiny") / "config.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["run", "--config", str(path), "--no-timing"])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), err.getvalue()
        assert "Traceback" not in err.getvalue() and "does not read" not in err.getvalue()
        assert (code == cli.EXIT_OK) == bool(out.getvalue())


def _valid_values(experiment: str, field: str):
    """Values of a point field that pass every check but the unread-field rule."""
    default = harness._DEFAULTS[field]
    if field == "trials":
        # the experiment's trial rules decide; multiples of 100 meet every rule in the table
        rules = [rule for rule in harness.EXPERIMENTS[experiment].rules if rule.field == "trials"]
        values = (st.integers(1, 2**40) | st.integers(1, 2**33).map(lambda k: 100 * k)).filter(
            lambda v: all(rule.holds(harness.ExperimentPoint(experiment, trials=v)) for rule in rules)
        )
    elif field in ("n", "t", "shots", "s_max"):
        values = st.integers(1, 2**63 - 1)
    elif field in ("l", "m", "q"):
        values = st.integers(0, 2**63 - 1)
    elif isinstance(default, int):
        values = st.integers(-(2**63), 2**63 - 1)
    elif isinstance(default, float):
        values = st.floats(allow_nan=False, allow_infinity=False)
    else:
        values = st.sampled_from(MODES if field == "mode" else harness.CHANNEL_KINDS)
    return values.filter(lambda v: v != default)


class TestReadFields:
    @pytest.mark.parametrize("experiment", sorted(harness.EXPERIMENTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_only_read_fields_leave_their_default(self, experiment, data, tmp_path_factory):
        field = data.draw(st.sampled_from(sorted(set(harness._DEFAULTS) - {"seed"})), label="field")
        kind = "identity"
        if field != "channel_kind" and "channel_kind" in harness.EXPERIMENTS[experiment].reads.split():
            kind = data.draw(st.sampled_from(harness.CHANNEL_KINDS), label="channel.kind")
        value = data.draw(_valid_values(experiment, field), label="value")
        if field in harness._SWEEPABLE or field == "channel_p":
            value = data.draw(st.sampled_from([value, [harness._DEFAULTS[field], value]]), label="swept")

        def config(value):
            base = {"experiment": experiment, **TINY_CONFIGS[experiment]}
            if field == "channel_kind":
                return {**base, "channel": {"kind": value}}
            if field == "channel_p":
                return {**base, "channel": {"kind": kind, "p": value}}
            return {**base, field: value, "channel": {"kind": kind}}

        harness.validate_config(config(harness._DEFAULTS[field]))
        if field in harness._read_fields(experiment, kind):
            harness.validate_config(config(value))
            return
        path = tmp_path_factory.mktemp("unread") / "config.json"
        path.write_text(json.dumps(config(value)))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["run", "--config", str(path), "--no-timing"])
        name = harness._CONFIG_NAMES.get(field, field)
        assert code == cli.EXIT_CONFIG and out.getvalue() == ""
        assert err.getvalue().startswith(f"error: config field '{name}': {experiment} does not read it")

    @pytest.mark.parametrize("experiment", sorted(harness.EXPERIMENTS))
    def test_runner_ignores_its_unread_fields(self, experiment, monkeypatch):
        # with the stream seed held fixed, an unread field moves no cell but its own column
        monkeypatch.setattr(harness, "point_seed", lambda pt: 12345)
        reads = harness.EXPERIMENTS[experiment].reads.split()
        other = {"mode": "composed", "channel_kind": "depolarizing", "channel_p": 0.25}
        bases = [harness.ExperimentPoint(experiment, **TINY_CONFIGS[experiment])]
        if "channel_kind" in reads:
            bases.append(replace(bases[0], channel_kind="random_unitary"))
        for base in bases:
            # neither base's channel kind reads p, and under identity tamper an auth sweep reads no trials or mode
            unread = set(harness._DEFAULTS) - harness._read_fields(experiment, base.channel_kind)
            rows = [asdict(r) for r in harness.EXPERIMENTS[experiment].run(base)]
            for field in sorted(unread):
                value = other[field] if field in other else getattr(base, field) + 1
                changed = [asdict(r) for r in harness.EXPERIMENTS[experiment].run(replace(base, **{field: value}))]
                assert [{**row, field: None} for row in changed] == [{**row, field: None} for row in rows], field

    def test_readme_lists_the_fields_each_experiment_reads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([a-z-]+)` \| ([a-z0-9_, ]+) \|", readme, re.MULTILINE)
        documented = {name: set(fields.split(", ")) for name, fields in rows}
        declared = {
            name: {"channel" if field.startswith("channel_") else field for field in exp.reads.split()}
            for name, exp in harness.EXPERIMENTS.items()
        }
        assert documented == declared


class TestCli:
    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": "cpa", "n": "2"},
            {"experiment": "efi", "delta": [0.1, "x"]},
            {"experiment": "wg-selftest", "trials": True},
            {"experiment": "wg-selftest", "channel": {"kind": "bogus"}},
            {"experiment": "qubit-count", "mode": "bogus", "trials": 2, "shots": 20},
            {"experiment": "wg-selftest", "mode": "bogus"},
            {"experiment": "qubit-count", "s_max": 0, "trials": 1},
        ],
    )
    def test_mistyped_field_exits_2(self, config, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(path), "--no-timing"]) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: config field")

    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": "vprdm", "n": 2, "trials": 1},
            {"experiment": "cpa", "n": 1, "t": 2, "trials": 1},
        ],
    )
    def test_single_trial_standard_error_exits_2(self, config, tmp_path, capsys):
        # a standard error over one trial is NaN, which is not valid JSON
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(path), "--no-timing", "--format", "json"]) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: config field 'trials'") and "Traceback" not in out.err

    @pytest.mark.parametrize("t", range(1, 14))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 11, 100000])
    def test_wg_selftest_exit_codes(self, n, t, tmp_path, capsys):
        # the closed form (d - t)!/d! needs d = 2^n >= t, the S_t class sums stop
        # at t = 12, and n is held to the qubit cap before d is formed
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "wg-selftest", "n": n, "t": t}))
        code = cli.main(["run", "--config", str(path), "--no-timing"])
        out = capsys.readouterr()
        if n <= qcore.QUBIT_CAP and 2**n >= t and t <= 12:
            assert code == cli.EXIT_OK
            (record,) = harness.parse_csv(out.out)
            assert abs(record.estimate - record.exact) <= 1e-12 * record.exact
        else:
            assert code == cli.EXIT_CONFIG
            assert out.out == ""
            assert out.err.startswith("error:") and "Traceback" not in out.err
            assert ("within the qubit cap" in out.err) == (n > qcore.QUBIT_CAP)

    def test_security_scan_past_the_cap_exits_2_before_allocating(self, tmp_path, capsys):
        # 2 copies of z = 1 plus 40 purification qubits: the GHZ input alone would be 2^42 amplitudes
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "security-scan", "n": 1, "t": 2, "q": 40, "trials": 20}))
        assert cli.main(["run", "--config", str(path), "--no-timing"]) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:") and "within the qubit cap" in out.err and "Traceback" not in out.err

    @pytest.mark.parametrize(
        "config,count",
        [
            ({"experiment": "security-scan", "n": 1, "l": 1, "m": 1, "t": 2, "trials": 10}, pqas.SCAN_BATCHES),
            ({"experiment": "security-scan", "n": 1, "l": 1, "m": 1, "t": 2, "trials": [40, 50]}, pqas.SCAN_BATCHES),
            ({"experiment": "auth-sweep", "n": 1, "l": 1, "m": 0, "trials": 50, "channel": {"kind": "random_unitary"}}, pqas.MIN_AUTH_TRIALS),
        ],
    )
    def test_trial_count_errors_name_the_field(self, config, count, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(path), "--no-timing"]) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: config field 'trials'") and f" {count} " in out.err

    @pytest.mark.parametrize("criterion", ["0", "11", "-1"])
    def test_unknown_criterion_exits_2_before_any_criterion_runs(self, criterion, monkeypatch, capsys):
        with pytest.raises(ValueError, match=f"no criterion {criterion}"):
            selftest.run_criterion(int(criterion))
        ran = []
        monkeypatch.setattr(selftest, "run_criterion", ran.append)
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", "--criterion", "3", criterion])
        assert exc.value.code == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert f"error: argument --criterion: invalid choice: {criterion}" in out.err
        assert "[PASS]" not in out.out and not ran

    def test_a_failing_check_fails_its_criterion_and_exits_3(self, monkeypatch, capsys):
        ran = []

        def failing():
            ran.append("failing")
            yield "config {}"
            yield False, "x"
            yield "config {}"

        def other():
            ran.append("other")
            yield True, "y"

        k = 4
        criteria = [(other, name) for _, name in selftest.ALL_CRITERIA]
        criteria[k - 1] = (failing, selftest.ALL_CRITERIA[k - 1][1])
        monkeypatch.setattr(selftest, "ALL_CRITERIA", tuple(criteria))
        result = selftest.run_criterion(k)
        assert result.passed is False and result.details == ["config {}", "FAIL x", "config {}"]
        assert cli.main(["selftest", "--criterion", str(k)]) == cli.EXIT_ACCEPTANCE
        assert ran == ["failing", "failing"]
        assert capsys.readouterr().out.splitlines()[1:] == ["    config {}", "    FAIL x", "    config {}"]

    def test_criterion_line_prints_milliseconds(self):
        # a criterion that finishes within 50 ms still prints a nonzero time
        assert selftest.CriterionResult(5, "x", True, [], 0.00042).line() == "[PASS] criterion 5: x (0.4 ms)"

    def test_criterion_6_config_line_reproduces_its_rows(self, monkeypatch, tmp_path, capsys):
        # the rows the criterion checked, and the rows `pqaslab run` prints for its config line
        checked = []
        run = harness.run
        monkeypatch.setattr(harness, "run", lambda config, **kw: checked.extend(run(config, **kw)) or checked)
        result = selftest.run_criterion(6)
        assert result.passed
        (line,) = [d for d in result.details if d.startswith("config ")]
        path = tmp_path / "config.json"
        path.write_text(line[len("config "):])
        assert cli.main(["run", "--config", str(path), "--no-timing"]) == cli.EXIT_OK
        records = harness.parse_csv(capsys.readouterr().out)
        assert records == checked
        rows = {(r.experiment, r.m): r.estimate for r in records}
        success, advantage = rows["cpa:success", 0], rows["cpa:advantage", 4]
        assert f"success {success:.3f} >= 0.9" in result.details[1]
        assert f"advantage {advantage:.4f} <= 0.1" in result.details[2]

    @pytest.mark.parametrize(
        "config,field",
        [
            ({"experiment": "multistate", "n": 1, "trials": 2, "copies": 1}, "copies"),
            ({"experiment": "multistate", "n": 1, "trials": 2, "copies": [4, 0]}, "copies"),
            ({"experiment": "efi", "n": 3, "m0": 2}, "m0"),
            ({"experiment": "efi", "n": 3, "m0": -1}, "m0"),
            ({"experiment": "efi", "n": [4, 3], "m0": 2}, "m0"),
            ({"experiment": "efi", "n": 3, "m0": 0, "gamma": 1.0}, "gamma"),
            ({"experiment": "efi", "n": 3, "m0": 0, "c": 0.7}, "c"),
            ({"experiment": "efi", "n": 3, "m0": 0, "lambda_eff": 13}, "lambda_eff"),
        ],
    )
    def test_value_rules_name_the_field(self, config, field, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(path), "--no-timing"]) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: config field '{field}': ") and "Traceback" not in out.err

    def test_value_rules_come_from_the_table(self):
        fields = {exp: [rule.field for rule in row.rules] for exp, row in harness.EXPERIMENTS.items() if row.rules}
        assert fields == {
            "wg-selftest": ["n", "t", "t"],
            "security-scan": ["trials", "m"],
            "auth-sweep": ["trials", "channel.p", "m"],
            "cpa": ["trials", "t", "m"],
            "qubit-count": ["n", "s_max", "m", "delta"],
            "multistate": ["copies", "m"],
            "decoy": ["m", "t"],
            "vprdm": ["trials", "m", "n", "t"],
            "efi": ["gamma", "c", "m0", "lambda_eff", "channel.p", "n"],
        }

    # a value rule broken only by a later point, sweeps that repeat a value (real ones compared as floats),
    # value rules once enforced only by a runner or the library after earlier points had run, and auth
    # sweeps that set a field covariant tamper leaves unread
    @pytest.mark.parametrize(
        "config,field,reason",
        [
            ({"experiment": "vprdm", "n": [3, 1], "m": 1, "trials": 4}, "m", "must be less than n"),
            ({"experiment": "cpa", "n": 2, "m": [2, 2], "t": 3, "trials": 10}, "m", "repeats a value"),
            ({"experiment": "cpa", "n": 2, "m": [1, 2, 1], "t": 3, "trials": 10}, "m", "repeats a value"),
            ({"experiment": "qubit-count", "n": 1, "trials": 2, "delta": [1, 1.0]}, "delta", "repeats a value"),
            ({"experiment": "auth-sweep", "n": 1, "channel": {"kind": "depolarizing", "p": [0, 0.0]}}, "channel.p", "repeats a value"),
            (
                {"experiment": "auth-sweep", "n": 2, "l": 2, "m": 2, "trials": 3000,
                 "channel": {"kind": "local_depolarizing", "p": [0.5, 1.5]}},
                "channel.p",
                "must lie in [0, 1]",
            ),
            (
                {"experiment": "security-scan", "n": 1, "l": 1, "m": [2, 9], "t": 2, "trials": 4000},
                "m",
                "must keep t (n + l + m) + q within the qubit cap",
            ),
            ({"experiment": "cpa", "n": [3, 1], "t": 4}, "t", "must satisfy t <= min(8, 2^n)"),
            ({"experiment": "qubit-count", "n": [1, 3]}, "n", "must be at most 2"),
            ({"experiment": "qubit-count", "s_max": [2, 4]}, "s_max", "must be at most 3"),
            (
                {"experiment": "auth-sweep", "n": 2, "l": 2, "m": 1, "trials": 1000, "channel": {"kind": "depolarizing", "p": 0.1}},
                "trials",
                "auth-sweep does not read it with channel kind 'depolarizing'",
            ),
            (
                {"experiment": "auth-sweep", "n": 1, "l": 1, "m": 1, "mode": "composed", "channel": {"kind": "identity"}},
                "mode",
                "auth-sweep does not read it with channel kind 'identity'",
            ),
            ({"experiment": "decoy", "n": 1, "l": 1, "m": [1, 2], "t": [2, 13]}, "t", "must be at most 12"),
            ({"experiment": "vprdm", "n": 3, "m": 1, "t": [2, 13], "trials": 4}, "t", "must be at most 12"),
            ({"experiment": "wg-selftest", "n": 4, "t": [2, 13]}, "t", "must be at most 12"),
            ({"experiment": "wg-selftest", "n": [3, 1], "t": 3}, "t", "must satisfy t <= 2^n"),
            # Z lies in [-1, 1]: below 0 every trial abstains, from 2 up every trial decides s' = 1
            ({"experiment": "qubit-count", "n": 1, "trials": 2, "delta": [0.1, 2]}, "delta", "must lie in [0, 2)"),
            ({"experiment": "qubit-count", "n": 1, "trials": 2, "delta": [0.1, -1e-9]}, "delta", "must lie in [0, 2)"),
            ({"experiment": "qubit-count", "n": 1, "trials": 2, "delta": 2.5}, "delta", "must lie in [0, 2)"),
        ],
    )
    def test_exits_2_before_any_point_runs(self, config, field, reason, monkeypatch, tmp_path, capsys):
        ran = []
        row = harness.EXPERIMENTS[config["experiment"]]
        monkeypatch.setitem(harness.EXPERIMENTS, config["experiment"], row._replace(run=lambda pt: ran.append(pt) or []))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(path), "--no-timing"]) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and not ran
        assert out.err.startswith(f"error: config field '{field}': {reason}")

    # per experiment: a point whose largest register is exactly the default cap of 10
    # qubits, and the field that one more qubit is added to
    @pytest.mark.parametrize(
        "experiment,at_cap,bump,field",
        [
            ("wg-selftest", {"n": 10}, "n", "n"),
            ("security-scan", {"n": 1, "l": 1, "m": 3, "t": 2, "q": 0}, "q", "m"),
            ("auth-sweep", {"n": 1, "l": 1, "m": 8}, "m", "m"),
            ("cpa", {"n": 2, "m": 8}, "m", "m"),
            ("qubit-count", {"n": 2, "s_max": 3, "l": 1, "m": 3}, "l", "m"),
            ("multistate", {"n": 1, "l": 1, "m": 8}, "m", "m"),
            ("decoy", {"n": 1, "l": 1, "m": 8}, "l", "m"),
            ("vprdm", {"n": 10, "m": 1}, "n", "n"),
            ("efi", {"n": 10}, "n", "n"),
        ],
    )
    def test_largest_register_is_capped_before_any_point_runs(self, experiment, at_cap, bump, field, monkeypatch):
        ran = []
        row = harness.EXPERIMENTS[experiment]
        monkeypatch.setitem(harness.EXPERIMENTS, experiment, row._replace(run=lambda pt: ran.append(pt) or []))
        config = {"experiment": experiment, **TINY_CONFIGS[experiment], **at_cap}
        harness.run(config, record_timing=False)
        assert len(ran) == 1
        with pytest.raises(ConfigError, match=f"within the qubit cap for {experiment}$") as err:
            harness.run({**config, bump: [config.get(bump, 0), config.get(bump, 0) + 1]}, record_timing=False)
        assert err.value.field == field and len(ran) == 1

    @pytest.mark.parametrize("channel", [{"kind": "local_depolarizing", "p": 0.2}, {"kind": "random_unitary"}])
    def test_sampled_auth_sweeps_read_trials_and_mode(self, channel):
        # the kinds an auth sweep draws keys for; identity and depolarizing exit 2 above
        config = {"experiment": "auth-sweep", "trials": 1000, "mode": "composed", "channel": channel}
        (point,) = harness.expand_points(harness.validate_config(config))
        assert (point.trials, point.mode) == (1000, "composed")

    def test_out_of_range_config_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "wg-selftest", "seed": 2**127}))
        assert cli.main(["run", "--config", str(path), "--no-timing"]) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: config field 'seed'")

    def test_run_takes_no_seed_option(self, tmp_path, capsys):
        # the config's seed is the only master seed
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "wg-selftest"}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(path), "--seed", "7"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_rules_name_fields_their_experiment_reads(self):
        # an exit-2 message never asks for a change to a field the config may not set
        for name, row in harness.EXPERIMENTS.items():
            reads = set().union(*(harness._read_fields(name, kind) for kind in harness.CHANNEL_KINDS))
            for rule in row.rules:
                assert rule.field.replace("channel.p", "channel_p") in reads, (name, rule)


class TestEmit:
    def _record(self):
        (pt,) = harness.expand_points(harness.validate_config({"experiment": "wg-selftest", "n": 2, "t": 2}))
        return harness._metric(pt, "", 0.0833333333333, stderr=0.0, exact=1 / 12)

    def test_csv_header_and_roundtrip(self):
        rec = self._record()
        text = harness.emit([rec])
        lines = text.strip().split("\n")
        assert lines[0] == harness.CSV_HEADER
        assert len(lines) == 2
        parsed = harness.parse_csv(text)
        assert parsed == [rec]

    def test_prediction_column_empty(self):
        text = harness.emit([self._record()])
        header, row = (line.split(",") for line in text.strip().split("\n"))
        assert row[header.index("prediction")] == ""

    def test_json_mirrors_fields(self):
        rec = self._record()
        payload = json.loads(harness.emit([rec], fmt="json"))
        assert payload[0]["experiment"] == "wg-selftest"
        assert payload[0]["exact"] == pytest.approx(1 / 12, rel=1e-11)

    def test_twelve_significant_digits(self):
        val = 0.123456789012345
        assert harness._fmt(harness._round12(val)) == "0.123456789012"

    def test_empty_emit_rejected(self):
        with pytest.raises(ValueError):
            harness.emit([])

    @pytest.mark.parametrize(
        "edit, line, found",
        [
            (lambda lines: [], 1, 0),
            (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0]], 2, len(fields(ResultRecord)) - 1),
            (lambda lines: [lines[0], lines[1] + ",7"], 2, len(fields(ResultRecord)) + 1),
        ],
        ids=["empty", "short-row", "extra-cell"],
    )
    def test_malformed_csv_names_line_and_cell_counts(self, edit, line, found):
        text = "\n".join(edit(harness.emit([self._record()]).splitlines()))
        expected = len(fields(ResultRecord))
        with pytest.raises(ValueError, match=f"^CSV line {line}: expected {expected} cells, found {found}$"):
            harness.parse_csv(text)

    def test_other_header_rejected(self):
        text = harness.emit([self._record()]).replace("prediction", "predicted", 1)
        with pytest.raises(ValueError, match="^CSV line 1: header is not"):
            harness.parse_csv(text)

    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": "wg-selftest", "n": [1, 2], "t": 2},
            {"experiment": "security-scan", "n": 1, "l": 1, "m": 1, "t": 2, "q": [0, 1], "trials": 20},
            {"experiment": "auth-sweep", "n": 1, "l": 1, "m": 1, "trials": 100, "channel": {"kind": "depolarizing", "p": 0.3}},
            {"experiment": "cpa", "trials": 4},
            {"experiment": "qubit-count", "s_max": [1, 2], "trials": 2, "shots": 20},
            {"experiment": "multistate", "copies": 4, "trials": 4},
            {"experiment": "decoy", "n": 1, "l": 1, "m": 1, "t": 2},
            {"experiment": "vprdm", "n": 2, "m": 1, "t": 2, "trials": 2},
            {"experiment": "efi", "n": 3, "lambda_eff": 2, "channel": {"kind": "local_depolarizing", "p": 0.1}},
        ],
        ids=lambda config: config["experiment"],
    )
    def test_real_records_round_trip(self, config):
        records = harness.run(config)
        assert {r.experiment.split(":")[0] for r in records} == {config["experiment"]}
        assert harness.parse_csv(harness.emit(records)) == records
        assert json.loads(harness.emit(records, fmt="json")) == [asdict(r) for r in records]

    @pytest.mark.parametrize("field", [*harness._SWEEPABLE, "channel.p"])
    def test_every_swept_field_has_a_column(self, field):
        # each field is swept on the first experiment of the table that reads it
        column_name = field.replace(".", "_")
        experiment = next(name for name, exp in harness.EXPERIMENTS.items() if column_name in exp.reads.split())
        values = {"trials": [20, 40], "delta": [0.25, 0.375], "gamma": [0.6, 0.7], "c": [0.2, 0.3],
                  "channel.p": [0.1, 0.2], "copies": [2, 4], "m0": [0, 1]}.get(field, [1, 2])
        fixed = {name: value for name, value in {"delta": 0.25, "gamma": 0.75, "c": 0.125}.items()
                 if name != field and name in harness.EXPERIMENTS[experiment].reads.split()}
        sweep = {"channel": {"kind": "depolarizing", "p": values}} if field == "channel.p" else {field: values}
        config = {"experiment": experiment, **TINY_CONFIGS[experiment], **fixed, **sweep}
        header, *rows = (line.split(",") for line in harness.emit(harness.run(config)).splitlines())
        column = dict(zip(header, zip(*rows)))
        for metric in set(column["experiment"]):
            cells = {cell for name, cell in zip(column["experiment"], column[column_name]) if name == metric}
            assert cells == {str(v) for v in values}
        for name, value in fixed.items():
            assert set(column[name]) == {str(value)}
        for name in set(harness._SWEEPABLE) - {field}:
            assert len(set(column[name])) == 1


# one small config per runner that draws a one-shot scrambler per trial (or per point)
_ONE_SHOT = {
    "multistate": {"n": 1, "l": 1, "m": [0, 2], "copies": 6, "trials": 20},
    "decoy": {"n": 1, "l": 1, "m": [1, 3], "t": 2},
    "vprdm": {"n": 3, "m": 1, "t": 2, "trials": 10},
}
_ONE_SHOT_SHA256 = {
    ("multistate", "composed"): "05c7bb555a973ebfe76dc2a5850fb76aff87902ebcd0a2ae4da1fda5025075b9",
    ("multistate", "pru_only"): "78a0e1fd2c430ff916fef9fea6e5df5f538c21a525ad2abc72725d7baaccd13f",
    ("decoy", "composed"): "85928d99df01c70766c09b28ab8d77312c46a6d22be376e8c43a42180897e7ee",
    ("decoy", "pru_only"): "53797370bb8683a71bbaa59f920ffd8a8426bb9dec604ed3cbf4e43cb3b22777",
    ("vprdm", "composed"): "edd3b374d09be6ab00bc201633c2f56bef1b99340fa7b36b1506d3aa30a6378b",
    ("vprdm", "pru_only"): "d93e6416ffb351c086623b52aa195fa2758ec004d58b5e42e41b3cac16bdf1d8",
}


class TestRun:
    def test_wg_selftest_exact(self):
        records = harness.run({"experiment": "wg-selftest", "n": [2, 3, 4], "t": [1, 2, 3, 4]})
        assert len(records) == 12
        for r in records:
            assert r.estimate == pytest.approx(r.exact, abs=1e-12)

    def test_determinism_without_timing(self):
        cfg = {"experiment": "vprdm", "n": 3, "m": 1, "t": 2, "trials": 50, "seed": 9}
        a = harness.emit(harness.run(cfg, record_timing=False))
        b = harness.emit(harness.run(cfg, record_timing=False))
        assert a == b

    def test_config_seed_changes_results(self):
        cfg = {"experiment": "vprdm", "n": 3, "m": 1, "t": 2, "trials": 50}
        a = harness.run({**cfg, "seed": 1}, record_timing=False)
        b = harness.run({**cfg, "seed": 2}, record_timing=False)
        assert [r.estimate for r in a] != [r.estimate for r in b]

    def test_threads_equivalent(self):
        cfg = {"experiment": "wg-selftest", "n": [2, 3], "t": [1, 2]}
        a = harness.emit(harness.run(cfg, threads=1, record_timing=False))
        b = harness.emit(harness.run(cfg, threads=3, record_timing=False))
        assert a == b

    def test_security_scan_smoke(self):
        records = harness.run(
            {"experiment": "security-scan", "n": 1, "l": 1, "m": 1, "t": 2, "trials": 100},
            record_timing=False,
        )
        (rec,) = records
        assert rec.exact is not None
        assert rec.estimate is not None

    def test_pru_only_rows_leave_exact_blank(self):
        # the brickwork alone is not Haar: no pru_only row prints a Haar value as exact,
        # and the scan row prints its Haar closed form as prediction instead
        scan = {"experiment": "security-scan", "n": 1, "l": 1, "m": 1, "t": 2, "trials": 100}
        (haar,) = harness.run(scan, record_timing=False)
        (pru,) = harness.run({**scan, "mode": "pru_only"}, record_timing=False)
        assert haar.exact is not None and haar.prediction is None
        assert pru.exact is None and pru.prediction == haar.exact
        auth = {"experiment": "auth-sweep", "n": 1, "l": 1, "m": 1, "trials": 100, "channel": {"kind": "random_unitary"}}
        haar_rows = harness.run(auth, record_timing=False)
        pru_rows = harness.run({**auth, "mode": "pru_only"}, record_timing=False)
        assert sum(r.exact is not None for r in haar_rows) == 2
        assert [r.exact for r in pru_rows] == [None] * 3
        assert [r.prediction for r in pru_rows] == [r.prediction for r in haar_rows]

    def test_auth_sweep_smoke(self):
        records = harness.run(
            {
                "experiment": "auth-sweep",
                "n": 1,
                "l": 1,
                "m": 1,
                "trials": 100,
                "channel": {"kind": "random_unitary"},
            },
            record_timing=False,
        )
        names = {r.experiment for r in records}
        assert names == {"auth-sweep:p0", "auth-sweep:fprime", "auth-sweep:fidelity"}
        p0 = next(r for r in records if r.experiment == "auth-sweep:p0")
        assert p0.exact is not None and p0.prediction is not None
        assert abs(p0.estimate - p0.exact) <= 3 * p0.stderr + 1e-9

    @pytest.mark.parametrize("channel", [{"kind": "identity"}, {"kind": "depolarizing", "p": [0.0, 0.3, 1.0]}])
    def test_covariant_auth_rows_print_the_closed_form_and_draw_nothing(self, channel, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a covariant auth sweep drew a key")

        for module in (harness, pqas, ensembles):
            monkeypatch.setattr(module, "sample_scramblers", refuse)
        for module in (harness, pqas):
            monkeypatch.setattr(module, "spawn_rngs", refuse)
        records = harness.run({"experiment": "auth-sweep", "n": [1, 2], "l": [0, 2], "m": 1, "channel": channel}, record_timing=False)
        assert len(records) == 3 * 4 * len(harness._as_list(channel.get("p", 0.0)))
        for r in records:
            part = QubitPartition(r.n, r.l, r.m)
            chan = harness.build_channel(r.channel_kind, r.channel_p, 2**part.z)
            psi = qcore.basis_ket(2**r.n, 0)
            p0, fprime = pqas.exact_haar_p0(part, chan, psi), pqas.exact_haar_fprime(part, chan, psi)
            expect = {
                "auth-sweep:p0": (p0, pqas.predicted_p0(part, chan)),
                "auth-sweep:fprime": (fprime, pqas.predicted_fprime(part, chan)),
                "auth-sweep:fidelity": (fprime / p0, None),
            }[r.experiment]
            assert (r.estimate, r.prediction) == tuple(map(harness._round12, expect))
            assert r.stderr is None and r.exact is None

    def test_cpa_smoke(self):
        records = harness.run(
            {"experiment": "cpa", "n": 2, "m": 0, "t": 4, "trials": 120}, record_timing=False
        )
        success = next(r for r in records if r.experiment == "cpa:success")
        assert success.estimate >= 0.85

    def test_cpa_draws_no_scrambler(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the left-or-right game drew a scrambler")

        for module in (attacks, ensembles):
            monkeypatch.setattr(module, "sample_scramblers", refuse)
        monkeypatch.setattr(ensembles, "build_scramblers", refuse)
        records = harness.run({"experiment": "cpa", "n": 1, "m": [0, 2], "t": 2, "trials": 20}, record_timing=False)
        assert len(records) == 4

    def test_decoy_smoke(self):
        records = harness.run(
            {"experiment": "decoy", "n": 1, "l": 1, "m": 2, "t": 2}, record_timing=False
        )
        dist = next(r for r in records if r.experiment == "decoy:distance")
        rho = qcore.pure_dm(qcore.basis_ket(2, 0))
        assert dist.estimate == pytest.approx(0.5 * reference.closeness_dense(QubitPartition(1, 1, 2), rho, 2), abs=1e-12)

    def test_closeness_rows_build_no_dense_moment(self, monkeypatch):
        # decoy and vprdm print their closed forms and leave `exact` blank: no d^t moment is built
        def refuse(*args):
            raise AssertionError("a dense moment was built at run time")

        monkeypatch.setattr(moments, "haar_moment", refuse)
        monkeypatch.setattr(moments, "_perm_sum", refuse)
        decoy = harness.run({"experiment": "decoy", "n": 1, "l": 1, "m": [1, 3], "t": [2, 4]}, record_timing=False)
        vprdm = harness.run({"experiment": "vprdm", "n": [2, 5], "m": 1, "t": [2, 6], "trials": 2}, record_timing=False)
        rows = [r for r in decoy + vprdm if r.experiment in ("decoy:distance", "vprdm:ghse-closeness")]
        assert len(rows) == 8
        assert all(r.exact is None and 0.0 < r.estimate < 1.0 for r in rows)

    def test_auth_sweep_exact_beyond_the_old_cap(self):
        records = harness.run(
            {"experiment": "auth-sweep", "n": 1, "l": 2, "m": 4, "trials": 100,
             "channel": {"kind": "local_depolarizing", "p": 0.2}},
            record_timing=False,
        )
        for r in records:
            if r.experiment != "auth-sweep:fidelity":
                assert abs(r.estimate - r.exact) <= 3 * r.stderr + 1e-9

    def test_multistate_smoke(self):
        records = harness.run(
            {"experiment": "multistate", "n": 1, "m": 0, "copies": 8, "trials": 60},
            record_timing=False,
        )
        acc = next(r for r in records if r.experiment == "multistate:accuracy")
        assert acc.estimate >= 0.9

    def test_multistate_encrypts_each_distinct_message_once(self, monkeypatch):
        messages = []
        scramble_padded = pqas.scramble_padded
        monkeypatch.setattr(
            pqas, "scramble_padded", lambda rho, *a: messages.append(int(np.argmax(rho))) or scramble_padded(rho, *a)
        )
        harness.run({"experiment": "multistate", "n": 1, "copies": 5, "trials": 30}, record_timing=False)
        # one trial encrypts |0> (one state) or |0>, |1> (two), never a copy twice
        trials = "".join(map(str, messages)).replace("01", "b").replace("0", "a")
        assert len(trials) == 30 and set(trials) == {"a", "b"}

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("experiment", sorted(_ONE_SHOT))
    def test_one_shot_trial_keys_leave_the_scrambler_cache_alone(self, experiment, mode):
        # every trial scrambler comes from sample_scramblers, never from build_scrambler's cache
        before = ensembles.build_scrambler.cache_info()
        harness.run({"experiment": experiment, **_ONE_SHOT[experiment], "mode": mode}, record_timing=False)
        assert ensembles.build_scrambler.cache_info() == before

    @pytest.mark.parametrize("experiment", ["decoy", "vprdm"])
    def test_haar_trials_draw_only_message_zero_columns(self, experiment, monkeypatch):
        # a haar_exact decoy probe or vprdm trial reads message |0>'s 2^m columns, and draws no others
        shapes = []
        haar = ensembles._haar
        monkeypatch.setattr(ensembles, "_haar", lambda rows, cols, rngs: shapes.append((rows, cols, len(rngs))) or haar(rows, cols, rngs))
        config = {"experiment": experiment, **_ONE_SHOT[experiment], "mode": "haar_exact"}
        harness.run(config, record_timing=False)
        if experiment == "decoy":  # z = n + l + m, one probe per point
            assert shapes == [(2 ** (2 + m), 2**m, 1) for m in config["m"]]
        else:  # the key and the wrong key of each trial
            assert shapes == [(2**config["n"], 2 ** config["m"], 2)] * config["trials"]

    @pytest.mark.parametrize("mode", ["composed", "pru_only"])
    @pytest.mark.parametrize("experiment", sorted(_ONE_SHOT))
    def test_keyed_one_shot_rows_are_pinned(self, experiment, mode):
        # the digests of these CSVs when each trial key went through pqas.encrypt and vprdm_generate/verify
        text = harness.emit(harness.run({"experiment": experiment, **_ONE_SHOT[experiment], "mode": mode}, record_timing=False))
        assert hashlib.sha256(text.encode()).hexdigest() == _ONE_SHOT_SHA256[experiment, mode]

    def test_qubit_count_smoke(self):
        records = harness.run(
            {"experiment": "qubit-count", "n": 2, "s_max": 2, "m": 0, "trials": 10, "shots": 300},
            record_timing=False,
        )
        correct = next(r for r in records if r.experiment == "qubit-count:correct")
        assert correct.estimate == pytest.approx(1.0)

    def test_qubit_count_cost_does_not_grow_with_m(self):
        # z = 9: the pad-averaged law is O(4^z) whatever m is
        records = harness.run(
            {"experiment": "qubit-count", "n": 1, "s_max": 1, "m": 8, "trials": 1, "shots": 800},
            record_timing=False,
        )
        abstain = next(r for r in records if r.experiment == "qubit-count:abstain")
        assert abstain.estimate == 1.0

    def test_qubit_count_honours_mode(self, monkeypatch):
        modes = []
        sample_scramblers = attacks.sample_scramblers
        monkeypatch.setattr(
            attacks, "sample_scramblers", lambda part, mode, rngs: modes.append(mode) or sample_scramblers(part, mode, rngs)
        )
        harness.run({"experiment": "qubit-count", "mode": "composed", "trials": 2, "shots": 20}, record_timing=False)
        assert modes == ["composed", "composed"]

    def test_efi_smoke(self):
        records = harness.run(
            {
                "experiment": "efi",
                "n": 5,
                "m0": 1,
                "gamma": 0.7,
                "c": 0.3,
                "lambda_eff": 4,
                "channel": {"kind": "local_depolarizing", "p": [0.0, 0.1]},
            },
            record_timing=False,
        )
        dists = [r for r in records if r.experiment == "efi:trace-distance"]
        assert len(dists) == 2
        noiseless = next(r for r in dists if "p=0)" in r.channel)
        noisy = next(r for r in dists if "p=0.1" in r.channel)
        assert noisy.estimate <= noiseless.estimate + 1e-9

    def test_bad_config_raises(self):
        with pytest.raises(ConfigError):
            harness.run({"experiment": "auth-sweep", "trials": 0})
