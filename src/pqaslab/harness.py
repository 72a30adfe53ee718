"""Experiment configuration, dispatch, and results persistence.

A run is described by one flat JSON document.  Any numeric field except
``seed`` may be a list of distinct values: the integer fields, the real
fields ``delta``, ``gamma`` and ``c``, and the channel's ``p``.  The run
then expands to the Cartesian product of all swept fields.  Every expanded
point gets its own derived seed (keyed hash of master seed, experiment name,
parameter tuple), so records are reproducible independently of sweep order
or thread count.
Each experiment reads only the fields its row of ``EXPERIMENTS`` names; a
config that sets any other field to anything but its default is rejected,
and so is a point that breaks one of the row's value rules.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import attacks, moments, pqas, primitives, qcore
from ._streams import derive_bytes, spawn_rng, spawn_rngs
from .ensembles import ScramblerSpec, sample_haar, sample_scramblers
from .qcore import QubitPartition


# the key ensembles an experiment can tell apart; the library's third mode, composed, is Haar over keys
MODES = ("haar_exact", "pru_only")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


@dataclass(frozen=True)
class ExperimentPoint:
    """One fully expanded parameter point.  The defaults are the config's: a
    field its experiment does not read holds its default."""

    experiment: str
    n: int = 1
    l: int = 0
    m: int = 0
    t: int = 1
    q: int = 0
    trials: int = 100
    shots: int = 800
    mode: str = "haar_exact"
    channel_kind: str = "identity"
    channel_p: float = 0.0
    seed: int = 0
    s_max: int = 2
    delta: float = 0.1
    copies: int = 12
    m0: int = 1
    gamma: float = 0.67
    c: float = 0.33
    lambda_eff: int = 6


# every point field but the experiment, by its default; a config sets the two
# channel fields as "channel": {"kind": ..., "p": ...}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentPoint) if f.name != "experiment"}
_CONFIG_NAMES = {"channel_kind": "channel.kind", "channel_p": "channel.p"}
_REAL_FIELDS = tuple(f.name for f in fields(ExperimentPoint) if f.type == "float" and f.name != "channel_p")
# the integer fields before the real ones: the order of the sweep's product, and so of tied rows
_SWEEPABLE = tuple(f.name for f in fields(ExperimentPoint) if f.type == "int" and f.name != "seed") + _REAL_FIELDS


@dataclass
class ResultRecord:
    """One output row.  Its fields, in order, are the CSV columns and the JSON
    keys; a field that shares its name with an ``ExperimentPoint`` field is
    copied from the point.  Floats are held at the 12 significant digits they
    are printed with, so a record survives its CSV unchanged."""

    experiment: str
    n: int
    l: int
    m: int
    t: int
    q: int
    trials: int
    shots: int
    mode: str
    channel: str
    channel_kind: str
    channel_p: float
    s_max: int
    delta: float
    copies: int
    m0: int
    gamma: float
    c: float
    lambda_eff: int
    estimate: float | None
    stderr: float | None
    exact: float | None
    prediction: float | None
    seed: int
    wall_ms: int | None = None

    def __post_init__(self):
        for f in fields(self):
            if f.type.startswith("float"):
                setattr(self, f.name, _round12(getattr(self, f.name)))
        if self.stderr is not None and self.estimate is not None and self.stderr < abs(self.estimate) * 1e-12:
            self.stderr = 0.0  # below the printed estimate's resolution: rounding noise, not an error bar


_FIELDS = fields(ResultRecord)
# The header is the schema version: parse_csv accepts no other.
CSV_HEADER = ",".join(f.name for f in _FIELDS)


def _optional(parse):
    return lambda cell: parse(cell) if cell else None


# one cell parser per ResultRecord field type
_PARSERS = {"str": str, "int": int, "float": float, "int | None": _optional(int), "float | None": _optional(float)}


def _round12(x: float | None) -> float | None:
    if x is None:
        return None
    return float(f"{float(x):.12g}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# ---------------------------------------------------------------------------
# config handling


def load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def validate_config(config: dict) -> dict:
    """Check a config against its experiment's row of ``EXPERIMENTS``; returns
    the point fields by name, each swept one (real ones as floats) as a list."""
    if not isinstance(config, dict):
        raise ConfigError("config", "must be a JSON object")
    known = set(_DEFAULTS) - set(_CONFIG_NAMES) | {"experiment", "channel"}
    for key in config:
        if key not in known:
            raise ConfigError(key, "unknown configuration field")
    cfg = {**_DEFAULTS, **config}
    name = cfg.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError("experiment", f"unknown experiment {name!r}; choose from {tuple(EXPERIMENTS)}")
    for field in _SWEEPABLE:
        real = field in _REAL_FIELDS
        vals = _as_list(cfg[field])
        if not vals or not all((_is_real if real else _is_int)(v) for v in vals):
            kind = "finite real number" if real else "64-bit integer"
            raise ConfigError(field, f"must be a {kind} or a nonempty list of them")
        cfg[field] = [float(v) for v in vals] if real else vals
    if not _is_int(cfg["seed"]):
        raise ConfigError("seed", "must be a 64-bit integer")
    if cfg["mode"] not in MODES:
        why = "composed keys are Haar over keys, so their rows are haar_exact's" if cfg["mode"] == "composed" else "unknown mode"
        raise ConfigError("mode", f"{why} ({cfg['mode']!r}); choose from {MODES}")
    for field in ("trials", "shots", "n", "t", "s_max"):
        if any(v < 1 for v in cfg[field]):
            raise ConfigError(field, "must be at least 1")
    for field in ("l", "m", "q"):
        if any(v < 0 for v in cfg[field]):
            raise ConfigError(field, "must be nonnegative")
    chan = cfg.pop("channel", {"kind": "identity"})
    if not isinstance(chan, dict) or "kind" not in chan:
        raise ConfigError("channel", "must be an object with a 'kind'")
    _check_channel_kind(chan["kind"])
    for key in chan:
        if key not in ("kind", "p"):
            raise ConfigError("channel", f"unknown channel field {key!r}")
    pvals = _as_list(chan.get("p", 0.0))
    if not pvals or not all(_is_real(v) for v in pvals):
        raise ConfigError("channel", "'p' must be a finite real number or a nonempty list of them")
    cfg["channel_kind"], cfg["channel_p"] = chan["kind"], [float(p) for p in pvals]
    for field in (*_SWEEPABLE, "channel_p"):
        if len(set(cfg[field])) < len(cfg[field]):
            raise ConfigError(_CONFIG_NAMES.get(field, field), "repeats a value; a sweep runs each value once")
    exp = EXPERIMENTS[name]
    reads = _read_fields(name, cfg["channel_kind"])
    for field, default in _DEFAULTS.items():
        if field not in reads and any(v != default for v in _as_list(cfg[field])):
            why = f" with channel kind {cfg['channel_kind']!r}" if field in exp.reads.split() else ""
            raise ConfigError(_CONFIG_NAMES.get(field, field), f"{name} does not read it{why}; leave it at {default!r}")
    return cfg


def _read_fields(name: str, kind: str) -> set[str]:
    """The point fields experiment ``name`` reads under channel kind ``kind``, ``seed`` among them."""
    reads = set(EXPERIMENTS[name].reads.split()) | {"seed"}
    if kind not in _P_KINDS:
        reads.discard("channel_p")
    if name == "auth-sweep" and kind in _COVARIANT_KINDS:  # its rows print the closed form; no key is drawn
        reads -= {"trials", "mode"}
    return reads


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _is_int(value) -> bool:
    """A non-bool integer in the signed 64-bit range that point seeds can encode."""
    return isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63


def _is_real(value) -> bool:
    """A non-bool int or float that converts to a finite float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def expand_points(cfg: dict) -> list[ExperimentPoint]:
    """The points of a validated config's sweep, the channel's ``p`` varying
    fastest.  Each point must pass its experiment's rules, which may tie
    several fields; the first rule a point breaks raises ``ConfigError``
    naming its field."""
    swept = (*_SWEEPABLE, "channel_p")
    fixed = {name: cfg[name] for name in ("experiment", "mode", "channel_kind", "seed")}
    points = [ExperimentPoint(**fixed, **dict(zip(swept, combo))) for combo in itertools.product(*map(cfg.get, swept))]
    for pt in points:
        for rule in EXPERIMENTS[pt.experiment].rules:
            if not rule.holds(pt):
                raise ConfigError(rule.field, f"{rule.text} for {pt.experiment}")
    return points


def point_seed(pt: ExperimentPoint) -> int:
    """Derived per-point stream seed; independent of sweep order.

    Hashes the master seed, the experiment and every other field of the
    point in declaration order, real fields by their ``str``.
    """
    params = tuple(
        str(getattr(pt, f.name)) if f.type == "float" else getattr(pt, f.name)
        for f in fields(ExperimentPoint)
        if f.name not in ("experiment", "seed")
    )
    digest = derive_bytes(None, pt.seed, pt.experiment, params, n=8)
    return int.from_bytes(digest, "big") >> 1


CHANNEL_KINDS = ("identity", "depolarizing", "local_depolarizing", "random_unitary")
_P_KINDS = ("depolarizing", "local_depolarizing")  # the kinds that read ``p``
_COVARIANT_KINDS = ("identity", "depolarizing")  # U^dag Gamma(U X U^dag) U = Gamma(X) for every unitary U


def _check_channel_kind(kind) -> None:
    if kind not in CHANNEL_KINDS:
        raise ConfigError("channel", f"unknown channel kind {kind!r}; choose from {CHANNEL_KINDS}")


def build_channel(kind: str, p: float, dim: int) -> qcore.Channel:
    _check_channel_kind(kind)
    if kind == "identity":
        return qcore.IdentityChannel(dim)
    if kind == "depolarizing":
        return qcore.DepolarizingChannel(dim, p)
    if kind == "local_depolarizing":
        return qcore.LocalDepolarizingChannel(int(round(np.log2(dim))), p)
    rng = spawn_rng(0, "tamper-unitary", dim)
    return qcore.UnitaryChannel(sample_haar(int(round(np.log2(dim))), rng))


def channel_label(kind: str, p: float) -> str:
    if kind not in _P_KINDS:
        return kind
    return f"{kind}(p={p:g})"


# ---------------------------------------------------------------------------
# experiment implementations


# point fields a record copies by name; the experiment gains a metric suffix and the seed is derived
_POINT_FIELDS = ({f.name for f in fields(ExperimentPoint)} & {f.name for f in _FIELDS}) - {"experiment", "seed"}


def _metric(pt, suffix, estimate, stderr=None, exact=None, prediction=None):
    """One row of point ``pt``; its ``channel`` cell is the point's
    ``channel_label`` when the experiment reads ``channel_kind``, else blank."""
    reads_channel = "channel_kind" in EXPERIMENTS[pt.experiment].reads.split()
    return ResultRecord(
        **{name: getattr(pt, name) for name in _POINT_FIELDS},
        experiment=f"{pt.experiment}:{suffix}" if suffix else pt.experiment,
        channel=channel_label(pt.channel_kind, pt.channel_p) if reads_channel else "",
        estimate=estimate,
        stderr=stderr,
        exact=exact,
        prediction=prediction,
        seed=point_seed(pt),
    )


def _run_wg_selftest(pt: ExperimentPoint) -> list[ResultRecord]:
    d = 2**pt.n
    est = moments.sum_abs_weingarten(pt.t, d)
    exact = moments.sum_abs_weingarten_exact(pt.t, d)
    return [_metric(pt, "", est, exact=exact)]


def _run_security_scan(pt: ExperimentPoint) -> list[ResultRecord]:
    part = QubitPartition(pt.n, pt.l, pt.m)
    if pt.q == 0:
        state = qcore.basis_ket(2**pt.n, 0)
    else:
        qubits = pt.t * pt.n + pt.q
        state = (qcore.basis_ket(2**qubits, 0) + qcore.basis_ket(2**qubits, 2**qubits - 1)) / np.sqrt(2)
    rep = pqas.security_scan(part, state, pt.t, pt.trials, seed=point_seed(pt), mode=pt.mode)
    return [_metric(pt, "", rep.estimate, stderr=rep.stderr, exact=rep.exact, prediction=rep.prediction)]


def _run_auth_sweep(pt: ExperimentPoint) -> list[ResultRecord]:
    part = QubitPartition(pt.n, pt.l, pt.m)
    chan = build_channel(pt.channel_kind, pt.channel_p, 2**part.z)
    psi = qcore.basis_ket(2**pt.n, 0)
    exact_p0, exact_fp = pqas.exact_haar_p0(part, chan, psi), pqas.exact_haar_fprime(part, chan, psi)
    if pt.channel_kind in _COVARIANT_KINDS:
        # the tamper commutes with every scrambler and Y^dag Y = I, so every key of every
        # mode gives the Haar values: they are the estimates, and no key is drawn
        means, stderrs = (exact_p0, exact_fp, exact_fp / exact_p0), (None, None, None)
        exact_p0 = exact_fp = None
    else:
        stats = pqas.auth_sweep(psi, part, chan, pt.trials, mode=pt.mode, seed=point_seed(pt))
        means = stats.mean_p0, stats.mean_fprime, stats.mean_fidelity
        stderrs = stats.stderr_p0, stats.stderr_fprime, stats.stderr_fidelity
    if pt.mode == "pru_only":
        # the brickwork alone is not Haar: its rows carry only the Haar leading order, as prediction
        exact_p0 = exact_fp = None
    return [
        _metric(pt, "p0", means[0], stderrs[0], exact_p0, pqas.predicted_p0(part, chan)),
        _metric(pt, "fprime", means[1], stderrs[1], exact_fp, pqas.predicted_fprime(part, chan)),
        _metric(pt, "fidelity", means[2], stderrs[2]),
    ]


def _run_cpa(pt: ExperimentPoint) -> list[ResultRecord]:
    left, right = attacks.standard_cpa_lists(pt.t, pt.n)
    rep = attacks.lr_cpa_game(left, right, pt.m, pt.trials, seed=point_seed(pt))
    return [
        _metric(pt, "success", rep.success_rate, stderr=None),
        _metric(pt, "advantage", rep.advantage, stderr=rep.standard_error),
    ]


def _run_qubit_count(pt: ExperimentPoint) -> list[ResultRecord]:
    seed = point_seed(pt)
    correct = 0
    abstain = 0
    for rng in spawn_rngs(seed, ("qubit-count",), range(pt.trials)):
        true_s = int(rng.integers(1, pt.s_max + 1))
        state, copies = attacks.qubit_count_interception(pt.n, true_s, pt.s_max, rng, l=pt.l, m=pt.m, mode=pt.mode)
        rep = attacks.qubit_count_attack(state, copies, pt.n, pt.s_max, delta=pt.delta, shots=pt.shots, rng=rng)
        if rep.decision is None:
            abstain += 1
        elif rep.decision == true_s:
            correct += 1
    return [
        _metric(pt, "correct", correct / pt.trials),
        _metric(pt, "abstain", abstain / pt.trials),
    ]


def _run_multistate(pt: ExperimentPoint) -> list[ResultRecord]:
    part = QubitPartition(pt.n, pt.l, pt.m)
    correct = 0
    for rng in spawn_rngs(point_seed(pt), ("multistate",), range(pt.trials)):
        b = int(rng.integers(1, 3))
        y = sample_scramblers(part, pt.mode, [rng])[0]
        # b distinct messages |0>, ..., |b - 1>, copy i carrying message i mod b;
        # each message is scrambled once
        distinct = [pqas.Ciphertext(pqas.scramble_padded(qcore.basis_ket(2**pt.n, idx), y), part) for idx in range(b)]
        guess = attacks.multi_state_attack([distinct[i % b] for i in range(pt.copies)], rng)
        correct += int(guess == b)
    return [_metric(pt, "accuracy", correct / pt.trials)]


def _run_decoy(pt: ExperimentPoint) -> list[ResultRecord]:
    part = QubitPartition(pt.n, pt.l, pt.m)
    dist = attacks.decoy_indistinguishability(part, pt.t)
    # meta-information probe: entanglement entropy across the midpoint of the
    # ciphertext of |0>, which reads the first 2^m columns only
    rng = spawn_rng(point_seed(pt), "decoy-probe")
    state = pqas.scramble_zero(sample_scramblers(part, pt.mode, [rng], [0])[0, :, 0])
    cut = part.z // 2
    reduced = qcore.partial_trace(state, [2**cut, 2 ** (part.z - cut)], {1})
    entropy = qcore.vn_entropy_bits(reduced)
    return [
        _metric(pt, "distance", dist),
        _metric(pt, "cut-entropy", entropy),
    ]


def _run_vprdm(pt: ExperimentPoint) -> list[ResultRecord]:
    # a key's state is its ciphertext of |0> on n - m message qubits, no tag and m mixed
    # qubits (``vprdm_generate``), verified on the key's first 2^m columns; no other is drawn
    values = []
    for rng in spawn_rngs(point_seed(pt), ("vprdm",), range(pt.trials)):
        # the key, then the wrong key
        y, y_wrong = sample_scramblers(QubitPartition(pt.n - pt.m, 0, pt.m), pt.mode, [rng, rng], [0])[:, :, 0]
        rho = pqas.scramble_zero(y)
        values.append([primitives.vprdm_value(rho, key) for key in (y, y_wrong)])
    completeness, wrong = np.array(values).T
    return [
        _metric(pt, "completeness", float(np.mean(completeness)), exact=1.0),
        # each mode's keys form a unitary 1-design (the brickwork's layer 0 is independent Haar gates on all qubits)
        _metric(pt, "wrong-key", *pqas.mean_stderr(wrong), exact=2.0 ** -(pt.n - pt.m)),
        _metric(pt, "ghse-closeness", primitives.ghse_closeness(pt.n, pt.m, pt.t)),
    ]


def _run_efi(pt: ExperimentPoint) -> list[ResultRecord]:
    noise = build_channel(pt.channel_kind, pt.channel_p, 2**pt.n)
    params = primitives.EfiParams(pt.n, pt.m0, pt.gamma, pt.c, pt.lambda_eff, noise=noise)
    rep = primitives.efi_report(params, ScramblerSpec(mode=pt.mode))
    return [
        _metric(pt, "s0-bits", rep.s0_bits),
        _metric(pt, "s1-bits", rep.s1_bits),
        _metric(pt, "trace-distance", rep.t_exact),
        _metric(pt, "farness-bound", rep.t_lower_bound),
    ]


class Rule(NamedTuple):
    """A value rule on an expanded point: a point where ``holds`` is false
    exits 2 naming ``field``, with ``text`` as the reason."""

    field: str
    holds: Callable[[ExperimentPoint], bool]
    text: str


class Experiment(NamedTuple):
    """An experiment's runner, the point fields it reads besides ``seed`` (as
    one space-separated string) and the value rules each of its points must
    pass, its trial rule among them; the rules alone admit a point, and the
    runner re-checks none of them.  A config must leave every other field
    at its default; the channel's ``p`` counts as read only for the
    depolarizing kinds, and an auth sweep's ``trials`` and ``mode`` only for
    the others (``_read_fields``).  An experiment that reads
    ``channel_kind`` gets its rows' ``channel`` cell from the point
    (``_metric``); its runner never passes it."""

    run: Callable[[ExperimentPoint], list[ResultRecord]]
    reads: str
    rules: tuple[Rule, ...]


def _cap(field: str, size: str, qubits: Callable[[ExperimentPoint], int]) -> Rule:
    """The qubit cap on a point's largest register, of ``qubits(pt)`` qubits (``size``)."""
    return Rule(field, lambda pt: qubits(pt) <= qcore.QUBIT_CAP, f"must keep {size} within the qubit cap")


def _trials_at_least(count: int) -> Rule:
    return Rule("trials", lambda pt: pt.trials >= count, f"must be at least {count}")


# each experiment's trial rule comes first: the auth sweep's statistics need
# pqas.MIN_AUTH_TRIALS trials, cpa and vprdm report a standard error, which
# needs pqas.MIN_STDERR_TRIALS, and the security scan splits its trials into
# pqas.SCAN_BATCHES equal batches; every point keeps its largest register
# within the qubit cap; the multi-state attack compares ciphertexts in pairs;
# the left-or-right game asks mutually orthogonal queries; the qubit-count
# attack runs at desk scale, and its statistic Z lies in [-1, 1], so a
# threshold 1 - delta decides something only for 0 <= delta < 2; a vprdm state
# keeps n - m >= 1 message qubits; a depolarizing strength is a probability;
# EFI's two arms need 0 <= m0 < m1 = floor(gamma n) < n, and its key count
# 2^lambda_eff stays small; a limit the library enforces too is read from its
# constant; the class sums on S_t (the Weingarten sum, decoy and GHSE
# closeness) stop at t = 12, and the absolute Weingarten sum's closed form
# (d - t)!/d! needs d = 2^n >= t
_LAYOUT_CAP = _cap("m", "n + l + m", lambda pt: pt.n + pt.l + pt.m)
_N_CAP = _cap("n", "n", lambda pt: pt.n)
_P_RULE = Rule("channel.p", lambda pt: 0.0 <= pt.channel_p <= 1.0, "must lie in [0, 1]")
_CLASS_T = Rule("t", lambda pt: pt.t <= moments.MAX_CLASS_T, f"must be at most {moments.MAX_CLASS_T}")
_SCAN_RULES = (
    Rule("trials", lambda pt: pt.trials % pqas.SCAN_BATCHES == 0, f"must be a multiple of {pqas.SCAN_BATCHES}"),
    _cap("m", "t (n + l + m) + q", lambda pt: pt.t * (pt.n + pt.l + pt.m) + pt.q),
)
_CPA_RULES = (
    _trials_at_least(pqas.MIN_STDERR_TRIALS),
    Rule(
        "t",
        # min(Q, 2^n) without forming 2^n for a huge n: Q < 2^Q
        lambda pt: pt.t <= min(attacks.MAX_CPA_QUERIES, 2 ** min(pt.n, attacks.MAX_CPA_QUERIES)),
        f"must satisfy t <= min({attacks.MAX_CPA_QUERIES}, 2^n)",
    ),
    _cap("m", "n + m", lambda pt: pt.n + pt.m),
)
_QUBIT_COUNT_RULES = (
    Rule("n", lambda pt: pt.n <= attacks.MAX_DESK_N, f"must be at most {attacks.MAX_DESK_N}"),
    Rule("s_max", lambda pt: pt.s_max <= attacks.MAX_DESK_S, f"must be at most {attacks.MAX_DESK_S}"),
    _cap("m", "n s_max + l + m", lambda pt: pt.n * pt.s_max + pt.l + pt.m),
    Rule("delta", lambda pt: 0 <= pt.delta < attacks.DELTA_BOUND, f"must lie in [0, {attacks.DELTA_BOUND})"),
)
_AUTH_RULES = (_trials_at_least(pqas.MIN_AUTH_TRIALS), _P_RULE, _LAYOUT_CAP)
_MULTISTATE_RULES = (Rule("copies", lambda pt: pt.copies >= 2, "must be at least 2"), _LAYOUT_CAP)
_VPRDM_RULES = (_trials_at_least(pqas.MIN_STDERR_TRIALS), Rule("m", lambda pt: pt.m < pt.n, "must be less than n"), _N_CAP, _CLASS_T)
_WG_RULES = (_N_CAP, _CLASS_T, Rule("t", lambda pt: pt.t <= 2**pt.n, "must satisfy t <= 2^n"))
_EFI_RULES = (
    Rule("gamma", lambda pt: 0.0 < pt.gamma < 1.0, "must lie in (0, 1)"),
    Rule("c", lambda pt: 0.0 < pt.c < pt.gamma, "must satisfy 0 < c < gamma"),
    Rule("m0", lambda pt: 0 <= pt.m0 < int(pt.gamma * pt.n) < pt.n, "must satisfy 0 <= m0 < floor(gamma n) < n"),
    Rule(
        "lambda_eff",
        lambda pt: 1 <= pt.lambda_eff <= primitives.MAX_LAMBDA_EFF,
        f"must lie in 1..{primitives.MAX_LAMBDA_EFF}",
    ),
    _P_RULE,
    _N_CAP,
)


EXPERIMENTS = {
    "wg-selftest": Experiment(_run_wg_selftest, "n t", _WG_RULES),
    "security-scan": Experiment(_run_security_scan, "n l m t q trials mode", _SCAN_RULES),
    "auth-sweep": Experiment(_run_auth_sweep, "n l m trials mode channel_kind channel_p", _AUTH_RULES),
    "cpa": Experiment(_run_cpa, "n m t trials", _CPA_RULES),
    "qubit-count": Experiment(_run_qubit_count, "n l m trials shots s_max delta mode", _QUBIT_COUNT_RULES),
    "multistate": Experiment(_run_multistate, "n l m trials copies mode", _MULTISTATE_RULES),
    "decoy": Experiment(_run_decoy, "n l m t mode", (_LAYOUT_CAP, _CLASS_T)),
    "vprdm": Experiment(_run_vprdm, "n m t trials mode", _VPRDM_RULES),
    "efi": Experiment(_run_efi, "n m0 gamma c lambda_eff mode channel_kind channel_p", _EFI_RULES),
}


# ---------------------------------------------------------------------------
# run / emit


def run(config: dict, threads: int = 1, record_timing: bool = True) -> list[ResultRecord]:
    """Execute a validated config; deterministic given the config, whose
    ``seed`` is the only master seed.

    Record wall times are telemetry and are only attached when
    ``record_timing`` is set; determinism comparisons must disable it.
    """
    points = expand_points(validate_config(config))

    def work(pt: ExperimentPoint) -> list[ResultRecord]:
        start = time.perf_counter()
        records = EXPERIMENTS[pt.experiment].run(pt)
        elapsed = int(1000 * (time.perf_counter() - start))
        if record_timing:
            for r in records:
                r.wall_ms = elapsed
        return records

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(work, points))
    else:
        chunks = [work(pt) for pt in points]
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: (r.experiment, r.n, r.l, r.m, r.t, r.channel, r.trials))
    return records


def emit(records: list[ResultRecord], fmt: str = "csv", path: str | None = None) -> str:
    """Serialize records; returns the text and optionally writes it."""
    if not records:
        raise ValueError("no records to emit")
    rows = [{f.name: getattr(r, f.name) for f in _FIELDS} for r in records]
    if fmt == "csv":
        text = "\n".join([CSV_HEADER] + [",".join(map(_fmt, row.values())) for row in rows]) + "\n"
    elif fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def parse_csv(text: str) -> list[ResultRecord]:
    """Inverse of ``emit(records, "csv")``; a header other than ``CSV_HEADER`` is rejected."""
    parsers = [_PARSERS[f.type] for f in _FIELDS]
    records = []
    for number, line in enumerate(text.splitlines() or [""], start=1):
        cells = line.split(",") if line else []
        if len(cells) != len(parsers):
            raise ValueError(f"CSV line {number}: expected {len(parsers)} cells, found {len(cells)}")
        if number == 1:
            if line != CSV_HEADER:
                raise ValueError(f"CSV line 1: header is not {CSV_HEADER!r}")
        else:
            records.append(ResultRecord(*(parse(cell) for parse, cell in zip(parsers, cells))))
    return records
