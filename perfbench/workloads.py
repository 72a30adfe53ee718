"""The benchmark's workloads: fixed operation lists built from the workload seed.

Every workload drives what a user runs: ``harness.run`` on flat configs
(including ``configs/auth_sweep.json`` and ``configs/security_scan.json``,
unchanged) followed by ``harness.emit``, and direct calls into the public
protocol API.  Each
operation returns a deterministic payload; a pass runs every operation once,
and the checks run on the payloads after the pass, outside its timing.

Why each workload exists, the ROADMAP item it judges and where no change is
predicted are stated on its function below and in README.md.

Monte Carlo configs whose records are checked against an exact oracle at
3 sigma keep a fixed master seed, as ``selftest`` does: at a fresh seed every
such check fails by chance 0.27 % of the time, which over the 19 such
records would fail a few percent of runs.  The workload seed drives every other
input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pqaslab import attacks, harness, pqas, primitives, qcore
from pqaslab.ensembles import ScramblerSpec, SecretKey
from pqaslab.qcore import QubitPartition

# The tolerances selftest.py pins for the same quantities.
SIGMAS = 3.0          # Monte Carlo vs exact oracle: |est - exact| <= 3 stderr + FLOOR
FLOOR = 1e-9
EXACT_TOL = 1e-9      # round trip, |P0 - 1|, right-key verification, EFI certificate
CPA_PADDED_ADVANTAGE = 0.1


@dataclass
class Op:
    """One timed call; ``check`` and ``digest`` run on its result after the pass."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], bytes]
    kind: str = ""        # "msg": message on a key in use; "open": first message on a fresh key


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warm_up: Callable[[], object]
    inputs: list  # JSON description, hashed into the provenance


# ---------------------------------------------------------------------------
# harness operations


def _agrees_with_oracle(rec: dict) -> bool:
    if rec["estimate"] is None or rec["exact"] is None:
        return True
    return abs(rec["estimate"] - rec["exact"]) <= SIGMAS * (rec["stderr"] or 0.0) + FLOOR


def _padded_advantage(records: list[dict]) -> list[str]:
    return [
        f"padded cpa advantage {r['estimate']} > {CPA_PADDED_ADVANTAGE} at m={r['m']}"
        for r in records
        if r["experiment"] == "cpa:advantage" and r["m"] > 0 and r["estimate"] > CPA_PADDED_ADVANTAGE
    ]


def _harness_op(label: str, config: dict, extra_checks=()) -> Op:
    def run():
        return harness.emit(harness.run(config, threads=1, record_timing=False), fmt="json")

    def check(text):
        records = json.loads(text)
        failures = [
            f"{r['experiment']} m={r['m']} channel={r['channel']}: estimate {r['estimate']} vs exact "
            f"{r['exact']} beyond {SIGMAS:g} stderr {r['stderr']}"
            for r in records
            if not _agrees_with_oracle(r)
        ]
        for extra in extra_checks:
            failures += extra(records)
        return failures

    return Op(label, run, check, str.encode)


def _shipped(root: Path, name: str) -> dict:
    with open(root / "configs" / name) as fh:
        return json.load(fh)


def _in_range(lo: float, hi: float) -> Callable[[float], list[str]]:
    return lambda v: [] if lo - FLOOR <= v <= hi + FLOOR else [f"value {v} outside [{lo}, {hi}]"]


def _float_bytes(v: float) -> bytes:
    return np.float64(v).tobytes()


# ---------------------------------------------------------------------------
# oracle-sweep

AUTH_SEED = 104   # fixed: every auth-sweep record is checked against the exact P0/F' oracle
SCAN_SEED = 102   # fixed: the q = 0 scan record is checked against the exact closeness oracle


def _auth(kind: str, m: int, **channel) -> dict:
    return {"experiment": "auth-sweep", "n": 2, "l": 2, "m": m, "trials": 100,
            "channel": {"kind": kind, **channel}, "seed": AUTH_SEED}


def oracle_sweep(root: Path, seed: int) -> Workload:
    """Exact oracles and the estimator's bootstrap; no composed scrambler is built.

    Judges ROADMAP item 2 (S_t-character oracles: ``moments.haar_moment``,
    ``closeness_exact``, ``ghse_moment`` and the decoy's duplicate oracle) and
    item 3 (closed-form P0/F' oracle: ``exact_haar_p0``/``exact_haar_fprime``),
    plus item 4's security-scan batching (``security_scan``, ``trace_norm``).
    The z=6 local-depolarizing point holds a 4096^2 moment, which sets
    ``peak_rss_mb``.  Random-unitary tamper stops at z=5: its z=6 oracle
    costs ~11 s per call, more than a whole pass.
    """
    specs = [
        ("auth_sweep.json", _shipped(root, "auth_sweep.json"), ()),
        ("security_scan.json", _shipped(root, "security_scan.json"), ()),
    ]
    for m in (0, 1, 2):
        specs.append((f"auth local_depolarizing z={4 + m}", _auth("local_depolarizing", m, p=0.2), ()))
    for m in (0, 1):
        specs.append((f"auth random_unitary z={4 + m}", _auth("random_unitary", m), ()))
    scan = {"experiment": "security-scan", "n": 1, "l": 1, "m": 1, "t": 2, "trials": 200}
    specs.append(("scan product q=0", {**scan, "q": 0, "seed": SCAN_SEED}, ()))
    specs.append(("scan ghz q=1", {**scan, "q": 1, "seed": seed}, ()))
    specs.append(("decoy z=5", {"experiment": "decoy", "n": 1, "l": 1, "m": 3, "t": 2, "seed": seed}, ()))
    ghse = (5, 1, 2)
    direct = [
        Op("ghse_closeness n=5 m=1 t=2", lambda: primitives.ghse_closeness(*ghse), _in_range(0.0, 1.0), _float_bytes)
    ]
    warm = {"experiment": "security-scan", "n": 1, "l": 1, "m": 0, "t": 2, "trials": 20}
    ops = [_harness_op(label, cfg, checks) for label, cfg, checks in specs] + direct
    inputs = [{"op": label, "config": cfg} for label, cfg, _ in specs] + [{"op": "ghse_closeness", "args": ghse}]
    return Workload("oracle-sweep", ops, lambda: harness.run(warm, threads=1, record_timing=False), inputs)


# ---------------------------------------------------------------------------
# protocol-and-attacks

PART = QubitPartition(2, 2, 4)      # z = 8, d = 256
SPEC = ScramblerSpec("composed")
SESSIONS = 4
MESSAGES = 10                       # per session; the first opens the key
TAMPER_P = 0.05
VPRDM_M = 2
EFI = dict(n=4, m0=1, gamma=0.67, c=0.33, lambda_eff=7)   # 2^7 keys > the 64-entry scrambler cache


def _pure(qubits: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2**qubits) + 1j * rng.standard_normal(2**qubits)
    return v / np.linalg.norm(v)


def _random_mixed(qubits: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((2**qubits, 2**qubits)) + 1j * rng.standard_normal((2**qubits, 2**qubits))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _keyed_ops(rng: np.random.Generator) -> tuple[list[Op], Callable[[], object]]:
    """Sessions, vprdm and EFI in ``composed`` mode at z=8, and a warm-up round trip."""
    keys = [SecretKey.generate(rng) for _ in range(SESSIONS)]
    wrong = [SecretKey.generate(rng) for _ in range(SESSIONS)]
    messages = [[_pure(PART.n, rng) for _ in range(MESSAGES)] for _ in range(SESSIONS)]
    warm_key, warm_psi = SecretKey.generate(rng), _pure(PART.n, rng)
    channel = qcore.LocalDepolarizingChannel(PART.z, TAMPER_P)
    efi = primitives.EfiParams(**EFI)

    def round_trip(psi, key):
        ct = pqas.tamper(pqas.encrypt(psi, key, PART, SPEC), channel)
        return pqas.authenticate(ct, key, SPEC), pqas.decrypt(ct, key, SPEC)

    def check_round_trip(res):
        outcome, plain = res
        return _in_range(0.0, 1.0)(outcome.accept_prob) + _in_range(1.0, 1.0)(np.trace(plain).real)

    def digest_round_trip(res):
        outcome, plain = res
        post = outcome.post_message.tobytes() if outcome.post_message is not None else b""
        return _float_bytes(outcome.accept_prob) + plain.tobytes() + post

    def untampered(psi, key):
        ct = pqas.encrypt(psi, key, PART, SPEC)
        return psi, pqas.decrypt(ct, key, SPEC), pqas.authenticate(ct, key, SPEC).accept_prob

    def check_untampered(res):
        psi, plain, p0 = res
        target = qcore.tensor(qcore.pure_dm(psi), qcore.zero_tag_state(PART.l))
        dist = qcore.trace_distance(plain, target)
        failures = [] if dist <= EXACT_TOL else [f"round-trip trace distance {dist:.2e} > {EXACT_TOL}"]
        return failures + ([] if abs(p0 - 1.0) <= EXACT_TOL else [f"untampered |P0 - 1| = {abs(p0 - 1):.2e}"])

    def vprdm(key, wrong_key):
        rho = primitives.vprdm_generate(primitives.VprdmParams(PART.z, VPRDM_M, key), SPEC)
        return (primitives.vprdm_verify(rho, key, PART.z, VPRDM_M, SPEC),
                primitives.vprdm_verify(rho, wrong_key, PART.z, VPRDM_M, SPEC))

    def check_vprdm(res):
        right, wrong_value = res
        failures = [] if abs(right - 1.0) <= EXACT_TOL else [f"right-key verification {right} != 1"]
        return failures + _in_range(0.0, 1.0)(wrong_value)

    def check_efi(rep):
        if rep.t_exact >= rep.t_lower_bound - EXACT_TOL:
            return []
        return [f"EFI trace distance {rep.t_exact} below its bound {rep.t_lower_bound}"]

    ops = []
    for s, key in enumerate(keys):
        for i, psi in enumerate(messages[s]):
            ops.append(Op(f"session {s} message {i}", lambda psi=psi, key=key: round_trip(psi, key),
                          check_round_trip, digest_round_trip, "msg" if i else "open"))
        ops.append(Op(f"session {s} untampered", lambda psi=messages[s][-1], key=key: untampered(psi, key),
                      check_untampered, lambda r: r[1].tobytes() + _float_bytes(r[2])))
        ops.append(Op(f"session {s} vprdm", lambda key=key, w=wrong[s]: vprdm(key, w),
                      check_vprdm, lambda r: _float_bytes(r[0]) + _float_bytes(r[1])))
    ops.append(Op("efi_report", lambda: primitives.efi_report(efi, SPEC), check_efi,
                  lambda r: repr(r).encode()))
    return ops, lambda: round_trip(warm_psi, warm_key)


def _attack_specs(seed: int) -> list:
    specs = []
    for m in (0, 4):
        cfg = {"experiment": "cpa", "n": 3, "m": m, "t": 5, "trials": 5, "seed": seed}
        specs.append((f"cpa t=5 m={m}", cfg, (_padded_advantage,)))
    for m in (0, 2):
        cfg = {"experiment": "qubit-count", "n": 2, "m": m, "trials": 20, "shots": 100, "seed": seed}
        specs.append((f"qubit-count m={m}", cfg, ()))
    for m in (0, 2):
        cfg = {"experiment": "multistate", "n": 1, "l": 1, "m": m, "trials": 40, "seed": seed}
        specs.append((f"multistate m={m}", cfg, ()))
    return specs


def _attack_direct_ops(rng: np.random.Generator, seed: int) -> list[Op]:
    probe_part = QubitPartition(1, 1, 2)
    probe_key = SecretKey.generate(rng)
    probe_psi = qcore.basis_ket(2, int(rng.integers(2)))
    bell_rho = _random_mixed(3, rng)
    bell_state = np.kron(bell_rho, bell_rho)

    def purity():
        spec = ScramblerSpec("haar_exact")
        cts = [pqas.encrypt(probe_psi, probe_key, probe_part, spec) for _ in range(12)]
        return attacks.purity_probe(cts, np.random.default_rng([seed, 1]))

    def bell():
        return attacks.bell_parity_purity(bell_state, 3, 4000, np.random.default_rng([seed, 2]))

    return [
        Op("purity_probe 12 copies z=4", purity, _in_range(-1.0, 1.0), _float_bytes),
        Op("bell_parity_purity h=3", bell, _in_range(-1.0, 1.0), _float_bytes),
    ]


def protocol_and_attacks(root: Path, seed: int) -> Workload:
    """The keyed protocol in ``composed`` mode at z=8, then the attack games.

    The only workload that builds the keyed brickwork x Haar x Clifford
    scrambler, and the one bound by Python loops over small matrices.  Per
    pass: SESSIONS fresh keys, each sending MESSAGES messages through
    encrypt -> tamper (local depolarizing) -> authenticate -> decrypt; an
    untampered round trip per session; vprdm_generate/verify with the right
    and a wrong key; one efi_report over 128 keys.  Then cpa at t=5,
    qubit-count and multistate at m in {0, 2}, a purity probe and Bell-outcome
    sampling.  No exact oracle runs.

    Judges ROADMAP item 4: the brickwork and ``authenticate`` work (message
    latency, session open, run_s) and the qubit-count and left-or-right (LR)
    game work (run_s).  The oracle rewrites of items 2 and 3 predict no
    change here.
    """
    rng = np.random.default_rng(seed)
    keyed, keyed_warm_up = _keyed_ops(rng)
    specs = _attack_specs(seed)
    ops = keyed + [_harness_op(label, cfg, checks) for label, cfg, checks in specs] + _attack_direct_ops(rng, seed)
    warm_cpa = {"experiment": "cpa", "n": 1, "m": 0, "t": 2, "trials": 2}

    def warm_up():
        keyed_warm_up()
        harness.run(warm_cpa, threads=1, record_timing=False)

    inputs = [{"partition": [PART.n, PART.l, PART.m], "mode": SPEC.mode, "sessions": SESSIONS,
               "messages": MESSAGES, "tamper": ["local_depolarizing", TAMPER_P], "vprdm_m": VPRDM_M, "efi": EFI},
              *({"op": label, "config": cfg} for label, cfg, _ in specs),
              {"op": "purity_probe", "partition": [1, 1, 2], "copies": 12},
              {"op": "bell_parity_purity", "qubits": 6, "prefix": 3, "shots": 4000}]
    return Workload("protocol-and-attacks", ops, warm_up, inputs)


WORKLOADS = {"oracle-sweep": oracle_sweep, "protocol-and-attacks": protocol_and_attacks}
