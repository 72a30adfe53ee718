"""Acceptance suite: every release-gating property as a list of checks.

Each criterion is a generator of ``(ok, text)`` checks.  A sampling
criterion checks only the rows of flat configs run by ``harness.run``, and
yields each config as a ``config {json}`` line first, so ``pqaslab run`` on
that line reproduces its rows.  ``run_criterion`` times one, marks each
check ``ok`` or ``FAIL`` (config lines pass unmarked) and passes it only
when every check holds; ``pqaslab selftest`` and tests/test_acceptance.py
both run the criteria through it, so the CLI and pytest always agree.
Statistical checks use fixed seeds; tolerances are pinned here, not tuned
at call sites.
"""

from __future__ import annotations

import json
import time
from collections.abc import Generator, Iterator
from dataclasses import dataclass

import numpy as np

from . import harness, moments, pqas, primitives, qcore
from ._streams import spawn_rng
from .ensembles import ScramblerSpec, SecretKey, sample_ghse, sample_haar_batch
from .qcore import QubitPartition

Check = tuple[bool, str]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: list[str]
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index}: {self.name} ({1000 * self.seconds:.1f} ms)"


def _rows(config: dict, *keys: str) -> Generator[str, None, dict]:
    """Yield ``config``'s ``config {json}`` line, then run it; returns its
    rows by (experiment, *fields ``keys``)."""
    yield "config " + json.dumps(config)
    records = harness.run(config, record_timing=False)
    return {(r.experiment, *(getattr(r, k) for k in keys)): r for r in records}


def _bracket(row: harness.ResultRecord) -> str:
    """A scan row's bracket [lower, upper], printed as estimate +- 2 stderr."""
    return f"{row.estimate:.5f} [{row.estimate - 2 * row.stderr:.5f}, {row.estimate + 2 * row.stderr:.5f}]"


# ---------------------------------------------------------------------------


def criterion_1_completeness(seed: int = 101) -> Iterator[Check]:
    """Round trip and unit acceptance for both scrambler modes."""
    count = 0
    worst_td = 0.0
    worst_p0 = 0.0
    for mode in ("haar_exact", "composed"):
        spec = ScramblerSpec(mode=mode)
        for n in (1, 2, 3):
            for l in (1, 2):
                for m in (0, 1, 2):
                    for rep in range(2 if mode == "composed" else 4):
                        rng = spawn_rng(seed, mode, n, l, m, rep)
                        part = QubitPartition(n, l, m)
                        key = SecretKey.generate(rng)
                        rho = sample_ghse(n, n, rng)
                        ct = pqas.encrypt(rho, key, part, spec)
                        plain = pqas.decrypt(ct, key, spec)
                        target = qcore.tensor(rho, qcore.zero_tag_state(l))
                        worst_td = max(worst_td, qcore.trace_distance(plain, target))
                        out = pqas.authenticate(ct, key, spec)
                        worst_p0 = max(worst_p0, abs(out.accept_prob - 1.0))
                        count += 1
    yield count >= 100, f"{count} (key, rho) pairs exercised"
    yield worst_td <= 1e-9, f"worst round-trip trace distance {worst_td:.2e} <= 1e-9"
    yield worst_p0 <= 1e-9, f"worst |P0 - 1| {worst_p0:.2e} <= 1e-9"


def criterion_2_closeness_scaling(seed: int = 102) -> Iterator[Check | str]:
    """Exact t=2 closeness halves per extra mixed qubit; Monte Carlo agrees."""
    rho = qcore.pure_dm(qcore.basis_ket(2, 0))
    deltas = {m: moments.closeness_exact(QubitPartition(1, 1, m), rho, 2) for m in (1, 2, 3)}
    for m in (1, 2):
        ratio = deltas[m + 1] / deltas[m]
        yield 0.35 <= ratio <= 0.65, f"exact ratio m={m}->{m + 1}: {ratio:.4f} in [0.35, 0.65]"
    scan = {"experiment": "security-scan", "n": 1, "l": 1, "m": 1, "t": 2, "trials": 2000, "seed": seed}
    row = (yield from _rows(scan, "m"))["security-scan", 1]
    dev = abs(row.estimate - row.exact)
    # the product-|0> scan at (1, 1, 1) is exact to rounding, so this is an equality with the oracle
    tol = 3 * row.stderr + 1e-9  # absolute floor for the exactly-converged regime
    yield dev <= tol, f"q=0 Monte Carlo {_bracket(row)} equals {row.exact:.5f} (|dev| {dev:.2e} <= {tol:.2e})"
    # GHZ input on t = 2 copies of n = 1 and q = 1 purification qubit: same
    # decay per extra mixed qubit within factor 2
    ghz = yield from _rows({**scan, "m": [1, 2], "q": 1}, "m")
    ratio_q1 = ghz["security-scan", 2].estimate / ghz["security-scan", 1].estimate
    ratio_q0 = deltas[2] / deltas[1]
    rel = ratio_q1 / ratio_q0
    yield (
        0.5 <= rel <= 2.0,
        f"entangled-input ratio {ratio_q1:.3f} within factor 2 of product ratio {ratio_q0:.3f} (GHZ "
        + ", ".join(f"m={m} {_bracket(r)}" for (_, m), r in ghz.items()) + ")",
    )


def criterion_3_weingarten(seed: int = 103) -> Iterator[Check]:
    """Weingarten sum identity and twirl vs Monte Carlo averaging."""
    worst = 0.0
    for t in (1, 2, 3, 4):
        for d in (4, 8, 16):
            worst = max(worst, abs(moments.sum_abs_weingarten(t, d) - moments.sum_abs_weingarten_exact(t, d)))
    yield worst <= 1e-12, f"sum |Wg| identity worst deviation {worst:.2e} <= 1e-12"
    t, d, samples, chunk = 2, 4, 5000, 1000
    rng = spawn_rng(seed, "wg-mc")
    for case in range(5):
        raw = rng.standard_normal((d**t, d**t)) + 1j * rng.standard_normal((d**t, d**t))
        obs = 0.5 * (raw + raw.conj().T)
        exact = moments.haar_moment(obs, t, d)
        acc = np.zeros_like(obs)
        sq = np.zeros(obs.shape, dtype=float)
        # a stack of draws (4 MB of conjugated observables) reads the stream
        # as one sample_haar call per draw would
        for drawn in range(0, samples, chunk):
            u = sample_haar_batch(2, [rng] * min(chunk, samples - drawn))
            uu = (u[:, :, None, :, None] * u[:, None, :, None, :]).reshape(-1, d**t, d**t)
            val = uu @ obs @ uu.conj().transpose(0, 2, 1)
            acc += val.sum(axis=0)
            sq += (np.abs(val) ** 2).sum(axis=0)
        mean = acc / samples
        var = sq / samples - np.abs(mean) ** 2
        sigma_f = np.sqrt(np.sum(var) / samples)
        dev = np.linalg.norm(mean - exact)
        yield dev <= 3 * sigma_f, f"observable {case}: Frobenius dev {dev:.4f} <= 3 sigma {3 * sigma_f:.4f}"


def criterion_4_auth_averages(seed: int = 104) -> Iterator[Check | str]:
    """Tag-acceptance and fidelity functionals match their Haar formulas."""
    part = QubitPartition(2, 2, 1)
    base = {"experiment": "auth-sweep", "n": 2, "l": 2, "m": 1, "seed": seed}
    for channel in ({"kind": "identity"}, {"kind": "depolarizing", "p": [0.1, 0.3, 0.5]}, {"kind": "random_unitary"}):
        trials = {"trials": 1000} if channel["kind"] == "random_unitary" else {}  # the one kind whose rows are sampled
        rows = yield from _rows({**base, **trials, "channel": channel}, "channel")
        for label in sorted({label for _, label in rows}):
            p0, fp = rows["auth-sweep:p0", label], rows["auth-sweep:fprime", label]
            slack = pqas.prediction_slack(part, harness.build_channel(p0.channel_kind, p0.channel_p, 2**part.z))
            for name, row in (("P0", p0), ("F'", fp)):
                if row.exact is not None:
                    dev_oracle = abs(row.estimate - row.exact)
                    tol_oracle = 3 * row.stderr + 1e-9
                    yield (
                        dev_oracle <= tol_oracle,
                        f"{label}: mean {name} {row.estimate:.5f} vs exact oracle {row.exact:.5f} within {tol_oracle:.2e}",
                    )
                dev_formula = abs(row.estimate - row.prediction)
                tol = 3 * (row.stderr or 0.0) + slack
                residual = f"{label}: {name} formula residual {dev_formula:.5f} <= 3 sigma + slack {tol:.5f}"
                yield dev_formula <= tol, residual


def criterion_5_fidelity_recovery(seed: int = 105) -> Iterator[Check | str]:
    """Accepted-state infidelity scales like 2^-l: l = 2 vs 4 ratio near 4."""
    channel = {"kind": "depolarizing", "p": 0.3}
    config = {"experiment": "auth-sweep", "n": 1, "l": [2, 4], "m": 1, "channel": channel, "seed": seed}
    rows = yield from _rows(config, "l")
    means = {l: 1.0 - rows["auth-sweep:fidelity", l].estimate for l in (2, 4)}
    ratio = means[2] / means[4]
    yield 2.5 <= ratio <= 6.5, f"mean(1-F) ratio l=2/l=4: {ratio:.3f} in [2.5, 6.5]"


def criterion_6_cpa_separation(seed: int = 106) -> Iterator[Check | str]:
    """Left-or-right game: breaks deterministic encryption, not the padded scheme."""
    rows = yield from _rows({"experiment": "cpa", "n": 2, "m": [0, 4], "t": 4, "trials": 500, "seed": seed}, "m")
    success = rows["cpa:success", 0].estimate
    yield success >= 0.9, f"deterministic mode success {success:.3f} >= 0.9"
    advantage = rows["cpa:advantage", 4].estimate
    yield advantage <= 0.1, f"padded mode advantage {advantage:.4f} <= 0.1"


def criterion_7_qubit_count(seed: int = 107) -> Iterator[Check | str]:
    """Bell-parity qubit-number attack works on pure-state encryption and
    abstains on the padded scheme."""
    config = {"experiment": "qubit-count", "n": 2, "s_max": 2, "m": [0, 2], "trials": 200, "shots": 600, "delta": 0.1}
    rows = yield from _rows({**config, "seed": seed}, "m")
    for mode_m, want in ((0, "correct"), (2, "abstain")):
        rate = rows[f"qubit-count:{want}", mode_m].estimate
        yield rate >= 0.95, f"m={mode_m}: {want} rate {rate:.3f} >= 0.95"


def criterion_8_vprdm(seed: int = 108) -> Iterator[Check | str]:
    """Keyed mixed states verify under their key, reject others, and match
    the random-mixed-state ensemble moment scaling."""
    spec = ScramblerSpec(mode="haar_exact")
    worst = 0.0
    count = 0
    rng = spawn_rng(seed, "vprdm-complete")
    for trial in range(100):
        n = 2 + trial % 4
        m = trial % n
        key = SecretKey.generate(rng)
        rho = primitives.vprdm_generate(primitives.VprdmParams(n, m, key), spec)
        worst = max(worst, abs(primitives.vprdm_verify(rho, key, n, m, spec) - 1.0))
        count += 1
    yield worst <= 1e-9, f"completeness over {count} keys: worst |V - 1| {worst:.2e} <= 1e-9"
    rows = yield from _rows({"experiment": "vprdm", "n": [2, 3, 4], "m": 1, "t": 2, "trials": 500, "seed": seed}, "n")
    wrong = rows["vprdm:wrong-key", 4]
    target = 2.0 ** -(wrong.n - wrong.m)
    yield (
        abs(wrong.estimate - target) <= 3 * wrong.stderr,
        f"wrong-key mean {wrong.estimate:.4f} vs 2^-(n-m) = {target:.4f} within 3 sigma {3 * wrong.stderr:.4f}",
    )
    closeness = {n_: rows["vprdm:ghse-closeness", n_].estimate for n_ in (2, 3, 4)}
    for n_ in (2, 3):
        ratio = closeness[n_ + 1] / closeness[n_]
        yield 0.35 <= ratio <= 0.65, f"ensemble-moment ratio n={n_}->{n_ + 1}: {ratio:.4f} in [0.35, 0.65]"


def criterion_9_efi(seed: int = 109) -> Iterator[Check]:
    """Entropy bounds, farness certificate and noise monotonicity."""
    spec = ScramblerSpec(mode="haar_exact")
    n, m0, gamma, c, lam = 6, 1, 2 / 3, 1 / 3, 8
    base = primitives.EfiParams(n, m0, gamma, c, lam)
    reports = {0.0: primitives.efi_report(base, spec)}
    for p in (0.1, 0.25):
        noisy = primitives.EfiParams(n, m0, gamma, c, lam, noise=qcore.LocalDepolarizingChannel(n, p))
        reports[p] = primitives.efi_report(noisy, spec)
    m1 = base.m1
    for p, rep in sorted(reports.items()):
        yield rep.fannes_holds(), f"p={p}: entropy-vs-distance inequality slack {rep.fannes_slack:.4f} >= 0"
        yield (
            rep.t_exact >= rep.t_lower_bound - 1e-9,
            f"p={p}: T {rep.t_exact:.4f} >= entropy lower bound {rep.t_lower_bound:.4f}",
        )
    rep0 = reports[0.0]
    yield rep0.s1_bits >= m1 - 1e-9, f"S1 {rep0.s1_bits:.4f} >= m1 = {m1}"
    yield rep0.s0_bits <= lam + m0 + 1e-9, f"S0 {rep0.s0_bits:.4f} <= lambda_eff + m0 = {lam + m0}"
    for p in (0.1, 0.25):
        yield (
            reports[p].t_exact <= rep0.t_exact + 1e-9,
            f"p={p}: noisy T {reports[p].t_exact:.4f} <= noiseless {rep0.t_exact:.4f}",
        )


def criterion_10_determinism(seed: int = 110) -> Iterator[Check | str]:
    """Same config and seed reproduce the emitted CSV byte for byte."""
    auth = {"experiment": "auth-sweep", "n": 1, "l": 1, "m": 1, "trials": 120, "channel": {"kind": "random_unitary"}}
    wg = {"experiment": "wg-selftest", "n": [2, 3], "t": 2}
    for config, fmt, text in (
        (auth, "csv", "repeated run emits bitwise-identical CSV (timing column disabled)"),
        (wg, "json", "JSON emission equally deterministic"),
    ):
        config = {**config, "seed": seed}
        yield "config " + json.dumps(config)
        first, second = (harness.emit(harness.run(config, record_timing=False), fmt=fmt) for _ in range(2))
        yield first == second, text


ALL_CRITERIA = (
    (criterion_1_completeness, "completeness round trip"),
    (criterion_2_closeness_scaling, "security closeness scaling"),
    (criterion_3_weingarten, "Weingarten identities"),
    (criterion_4_auth_averages, "authentication Haar averages"),
    (criterion_5_fidelity_recovery, "fidelity recovery scaling"),
    (criterion_6_cpa_separation, "chosen-plaintext separation"),
    (criterion_7_qubit_count, "qubit-number attack"),
    (criterion_8_vprdm, "verifiable keyed mixed states"),
    (criterion_9_efi, "EFI entropy and noise bounds"),
    (criterion_10_determinism, "end-to-end determinism"),
)


def run_criterion(index: int) -> CriterionResult:
    """Run and time criterion ``index`` (numbered from 1); it passes when
    every check holds.  Its config lines are details, not checks."""
    if not 1 <= index <= len(ALL_CRITERIA):
        raise ValueError(f"no criterion {index}: criteria are numbered 1 to {len(ALL_CRITERIA)}")
    criterion, name = ALL_CRITERIA[index - 1]
    start = time.perf_counter()
    items = list(criterion())
    seconds = time.perf_counter() - start
    checks = [item for item in items if not isinstance(item, str)]
    details = [item if isinstance(item, str) else ("ok   " if item[0] else "FAIL ") + item[1] for item in items]
    return CriterionResult(index, name, all(ok for ok, _ in checks), details, seconds)


def run_selftest(indices: list[int] | None = None) -> list[CriterionResult]:
    """Run the chosen criteria (all when none are given) in order, printing each verdict."""
    results = []
    for i in sorted(set(indices or range(1, len(ALL_CRITERIA) + 1))):
        res = run_criterion(i)
        results.append(res)
        print(res.line())
        for d in res.details:
            print("    " + d)
    return results
