"""Spans around eoflab's public functions, recorded from outside the library.

`Tracer.install` replaces each traced function in every eoflab module
namespace that holds it (so `eoflab.probes.minimize_over_decompositions`
is wrapped as well as `eoflab.eof.minimize_over_decompositions`), and
gives `eoflab.eof` a view of scipy whose `optimize.minimize` records one
span per L-BFGS restart and one per objective call.  `Tracer.restore`
puts every original back.  Spans stay in memory; `layer_metrics` turns
them into the per-layer numbers named in PER_LAYER.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# A restart "agrees" with its search when its value is this close to the best.
AGREE_TOL = 1e-6

# (span name, module, attribute) of each wrapped library function.
WRAPPED = (
    ("eof.minimize", "eoflab.eof", "minimize_over_decompositions"),
    ("eof.eof_wootters_2q", "eoflab.eof", "eof_wootters_2q"),
    ("ensembles.hjw_ensemble", "eoflab.ensembles", "hjw_ensemble"),
    ("ensembles.support_decomposition", "eoflab.ensembles", "support_decomposition"),
    ("ensembles.product_ensemble", "eoflab.ensembles", "product_ensemble"),
    ("qstate.von_neumann_entropy", "eoflab.qstate", "von_neumann_entropy"),
    ("qstate.reduced_state", "eoflab.qstate", "reduced_state"),
    ("qstate.partial_trace", "eoflab.qstate", "partial_trace"),
    ("qstate.tensor", "eoflab.qstate", "tensor"),
    ("qmat.herm_eig", "eoflab.qmat", "herm_eig"),
    ("statezoo.random_isometry", "eoflab.statezoo", "random_isometry"),
    ("statezoo.random_density_dims", "eoflab.statezoo", "random_density_dims"),
    ("statezoo.case1_state", "eoflab.statezoo", "case1_state"),
    ("probes.product_decomposition_members", "eoflab.probes", "product_decomposition_members"),
    ("probes.pair_superadditivity_gap", "eoflab.probes", "pair_superadditivity_gap"),
    ("probes.relation_chain_check", "eoflab.probes", "relation_chain_check"),
    ("probes.probe_question1", "eoflab.probes", "probe_question1"),
    ("probes.probe_question2", "eoflab.probes", "probe_question2"),
    ("probes.superadditivity_probe", "eoflab.probes", "superadditivity_probe"),
    ("cli.main", "eoflab.cli", "main"),
)
RESTART = "eof.restart"
OBJECTIVE = "eof.objective"

# Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = [
    ("eof.objective.calls", "count", "lower"),
    ("eof.objective.busy_s", "s", "lower"),
    ("eof.objective.s_per_call", "s", "lower"),
    ("eof.restart.count", "count", "lower"),
    ("eof.restart.busy_s", "s", "lower"),
    ("eof.restart.nit", "count", "lower"),
    ("eof.restart.nfev", "count", "lower"),
    ("eof.restart.converged_frac", "fraction", "higher"),
    ("eof.restart.agree_frac", "fraction", "higher"),
    ("eof.lbfgs.self_s", "s", "lower"),
    ("eof.minimize.calls", "count", "lower"),
    ("eof.minimize.busy_s", "s", "lower"),
    ("eof.setup.self_s", "s", "lower"),
]
PER_LAYER += [
    (f"{span}.{stat}", "count" if stat == "calls" else "s", "lower")
    for span, _, _ in WRAPPED if span != "eof.minimize"
    for stat in ("calls", "busy_s")
]
PER_LAYER += [
    (f"probes.{fn}.self_s", "s", "lower")
    for fn in ("product_decomposition_members", "pair_superadditivity_gap",
               "relation_chain_check")
]
PER_LAYER += [
    ("cli.self_s", "s", "lower"),
    ("trace_overhead_frac", "fraction", "lower"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at op level
    op: int
    info: dict = field(default_factory=dict)


class _ModuleView:
    """Stands in for a module: selected attributes replaced, the rest forwarded."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans while `op` is set; calls outside an op pass through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------
    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _exit(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span per call; on_result(result) -> dict fills span.info."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._exit(idx)
            if on_result is not None:
                span.info = on_result(result)
            return result
        return traced

    def _restart(self, minimize):
        wrapped_restart = self.wrap(RESTART, minimize, lambda res: {
            "nit": int(res.nit), "nfev": int(res.nfev), "success": bool(res.success)})

        def traced_minimize(fun, x0, *args, **kwargs):
            return wrapped_restart(self.wrap(OBJECTIVE, fun), x0, *args, **kwargs)
        return traced_minimize

    # -- installing and restoring -----------------------------------------
    def _set(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "eoflab" or n.startswith("eoflab.")]
        for name, module_name, attr in WRAPPED:
            original = getattr(sys.modules[module_name], attr)
            on_result = _agreement if name == "eof.minimize" else None
            traced = self.wrap(name, original, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, traced)
        eof = sys.modules["eoflab.eof"]
        scipy = eof.scipy
        self._set(eof, "scipy", _ModuleView(
            scipy, optimize=_ModuleView(
                scipy.optimize, minimize=self._restart(scipy.optimize.minimize))))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _agreement(est) -> dict:
    values = est.restart_values
    agree = sum(1 for v in values if abs(v - est.value) <= AGREE_TOL)
    return {"restarts": len(values), "agree": agree}


def snapshot() -> list[tuple[object, str, object]]:
    """Every (module, attr, value) of eoflab's module namespaces."""
    return [(m, a, v) for n, m in list(sys.modules.items())
            if n == "eoflab" or n.startswith("eoflab.")
            for a, v in vars(m).items()]


def unrestored(before: list[tuple[object, str, object]]) -> list[str]:
    """Names of a snapshot that no longer hold the value they held."""
    return [f"{m.__name__}.{a}" for m, a, v in before if vars(m).get(a) is not v]


# -- arithmetic over spans ----------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def by_name(spans: list[Span]) -> dict[str, dict]:
    """calls, busy_s (outermost spans of a name only) and self_s per span name."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            row["busy_s"] += s.end - s.start
    return out


def layer_metrics(spans: list[Span], overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass."""
    rows = by_name(spans)

    def row(name: str) -> dict:
        return rows.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    # a call that raised has no info; its op is already counted as failed
    restarts = [s.info for s in spans if s.name == RESTART and s.info]
    searches = [s.info for s in spans if s.name == "eof.minimize" and s.info]
    obj, rst, mini = row(OBJECTIVE), row(RESTART), row("eof.minimize")
    n_restarts = len(restarts)
    n_searched = sum(s["restarts"] for s in searches)
    out = {
        "eof.objective.calls": obj["calls"],
        "eof.objective.busy_s": obj["busy_s"],
        "eof.objective.s_per_call": obj["busy_s"] / obj["calls"] if obj["calls"] else 0.0,
        "eof.restart.count": n_restarts,
        "eof.restart.busy_s": rst["busy_s"],
        "eof.restart.nit": sum(r["nit"] for r in restarts),
        "eof.restart.nfev": sum(r["nfev"] for r in restarts),
        "eof.restart.converged_frac":
            sum(r["success"] for r in restarts) / n_restarts if n_restarts else 0.0,
        "eof.restart.agree_frac":
            sum(s["agree"] for s in searches) / n_searched if n_searched else 0.0,
        "eof.lbfgs.self_s": rst["self_s"],
        "eof.minimize.calls": mini["calls"],
        "eof.minimize.busy_s": mini["busy_s"],
        "eof.setup.self_s": mini["busy_s"] - rst["busy_s"],
        "cli.self_s": row("cli.main")["self_s"],
        "trace_overhead_frac": overhead_frac,
    }
    for name, _, _ in PER_LAYER:
        if name not in out:
            span, _, stat = name.rpartition(".")
            out[name] = row(span)[stat]
    return out


def nfev_mismatches(spans: list[Span]) -> int:
    """Restarts whose scipy nfev differs from the objective calls traced under them."""
    calls = [0] * len(spans)
    for s in spans:
        if s.name == OBJECTIVE and s.parent >= 0:
            calls[s.parent] += 1
    return sum(1 for i, s in enumerate(spans)
               if s.name == RESTART and s.info and s.info["nfev"] != calls[i])
