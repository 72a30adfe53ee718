"""Span tracing of pqaslab's public functions, installed from outside.

The program is not edited: for every traced function the tracer replaces
each module attribute in ``pqaslab.*`` that holds the original, so callers
that imported a function by name (``from .ensembles import sample_haar``)
are traced too, and puts the originals back afterwards.

A span records (name, start, end, parent, operation id, dimension).  Spans
stay in memory until the benchmark writes them out.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time


def _square(a, *args, **kwargs):
    return a.shape[0]


def _closeness_dim(partition, rho, t, *args, **kwargs):
    return (2**partition.z) ** t


# (module, function, dimension of the call's largest operand or None, per-layer stats reported)
TARGETS = (
    ("ensembles", "sample_haar", None, ("calls", "self_s")),
    ("ensembles", "random_pure_state", None, ("calls",)),
    ("ensembles", "build_scrambler", None, ("calls", "self_s")),
    ("ensembles", "sample_pru_surrogate", None, ("self_s",)),
    ("ensembles", "sample_clifford", None, ("self_s",)),
    ("moments", "haar_moment", _square, ("calls", "self_s", "max_dim")),
    ("moments", "closeness_exact", _closeness_dim, ("calls", "self_s", "max_dim")),
    ("moments", "ghse_moment", None, ("self_s",)),
    ("pqas", "auth_sweep", None, ("calls", "self_s")),
    ("pqas", "exact_haar_p0", None, ("self_s",)),
    ("pqas", "exact_haar_fprime", None, ("self_s",)),
    ("pqas", "security_scan", None, ("calls", "self_s")),
    ("pqas", "encrypt", None, ("self_s",)),
    ("pqas", "tamper", None, ("self_s",)),
    ("pqas", "authenticate", None, ("self_s",)),
    ("pqas", "decrypt", None, ("self_s",)),
    ("qcore", "trace_norm", _square, ("calls", "self_s", "max_dim")),
    ("qcore", "project", None, ("self_s",)),
    ("qcore", "partial_trace", None, ("self_s",)),
    ("qcore", "apply_unitary", None, ("self_s",)),
    ("qcore", "apply_channel", None, ("self_s",)),
    ("attacks", "lr_cpa_game", None, ("calls", "self_s")),
    ("attacks", "qubit_count_attack", None, ("calls", "self_s")),
    ("attacks", "multi_state_attack", None, ("self_s",)),
    ("attacks", "decoy_indistinguishability", None, ("self_s",)),
    ("primitives", "vprdm_generate", None, ("self_s",)),
    ("primitives", "vprdm_verify", None, ("self_s",)),
    ("primitives", "efi_report", None, ("self_s",)),
    ("primitives", "ghse_closeness", None, ("self_s",)),
    ("harness", "run", None, ("self_s",)),
    ("harness", "emit", None, ("self_s",)),
)

# span fields
NAME, START, END, PARENT, OP, DIM, CHILD = range(7)


class Tracer:
    """Wraps TARGETS while installed; ``op`` tags the spans of the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, dim_of):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            dim = dim_of(*args, **kwargs) if dim_of else None
            span = [name, 0.0, 0.0, parent, self.op, dim, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][CHILD] += span[END] - span[START]

        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.spans.clear()
        modules = [m for n, m in list(sys.modules.items()) if n == "pqaslab" or n.startswith("pqaslab.")]
        for modname, fname, dim_of, _ in TARGETS:
            original = getattr(sys.modules[f"pqaslab.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, dim_of)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        bad = [f"{m.__name__}.{a}" for m, a, o in self._patched if getattr(m, a) is not o]
        self._patched.clear()
        if bad:
            raise RuntimeError(f"could not restore {bad}")

    def summary(self) -> dict[str, dict]:
        """Per function: calls, self seconds and largest dimension seen."""
        out = {f"{m}.{f}": {"calls": 0, "self_s": 0.0, "max_dim": 0} for m, f, _, _ in TARGETS}
        for span in self.spans:
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += span[END] - span[START] - span[CHILD]
            if span[DIM]:
                entry["max_dim"] = max(entry["max_dim"], span[DIM])
        return out

    def covered_s(self) -> float:
        """Time inside any traced function: the summed durations of root spans."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] is None)
