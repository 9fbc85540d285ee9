"""The four benchmark workloads: seeded inputs, the timed op, and its check.

Ops run in rounds: a round visits each entry of a small fixed catalogue of
states once, and a run always ends on a whole round, so every run sees the
same mix of inputs.  The catalogue comes from the public `statezoo`
samplers; the workload seed picks the entry a run starts from and, where
that leaves the work unchanged, the matrices themselves:

- oracle-2q gives every op a seeded local-unitary frame,
  (U_A (x) U_B) rho (U_A (x) U_B)^dagger.  Local unitaries keep the spectrum
  and the EoF, and over 20 restarts they moved an op's time by about 5%.
- pair-additivity and relation-chain run their catalogue as it is.  Their
  op time follows the last bits of the input: the same pair in another
  local frame took 4.3-6.3 s (pair-additivity, whose two random m=16
  restarts are most of an op) or 3.9-7.2 s (relation-chain, whose eof+eof
  part runs L-BFGS across the kink of the concurrence).  A run holds only
  four or five such ops, so seeded frames made every timing metric spread
  by 0.19-0.39 of its median across five seeds.
- probe-cli passes each op a fresh seed-derived `--seed`; its ops are
  short enough that a run averages over hundreds of them.

Each op's library call is the timed region.  Its check runs after the
clock stops and compares against a reference computed here, independently
of the library where one exists (the Wootters closed form below).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import eoflab
import eoflab.cli
from eoflab import DensityMatrix, EofOptions
from eoflab.statezoo import random_density_dims, random_unitary

# Catalogue stream tags, one per workload; workload seeds never reach these.
_ORACLE, _PAIR, _CHAIN = 101, 102, 103

# Inputs built per run: whole rounds, more than a 60-second run uses at the
# speed of the first benchmarked commit (a faster run wraps around).
_POOL = {"oracle-2q": 96, "pair-additivity": 4, "relation-chain": 5, "probe-cli": 2000}


# -- independent reference -----------------------------------------------------

_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def wootters_eof(mat: np.ndarray) -> float:
    """Two-qubit EoF from the eigenvalues of rho (Y(x)Y) rho* (Y(x)Y).

    Deliberately not the library's route (which takes singular values of a
    Hermitian product), so the two can check each other.  Square roots of
    eigenvalues near zero make it good to about 1e-8 on rank-deficient
    states, well inside the 1e-6 the checks allow.
    """
    ev = np.linalg.eigvals(mat @ _YY @ mat.conj() @ _YY)
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    x = (1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0
    return -sum(p * math.log2(p) for p in (x, 1.0 - x) if p > 0.0)


# -- inputs ----------------------------------------------------------------------

def framed(rho: DensityMatrix, seed) -> DensityMatrix:
    """rho in a seeded local-unitary frame: same spectrum and EoF, new matrix."""
    local = np.ones((1, 1))
    for j, d in enumerate(rho.dims):
        local = np.kron(local, random_unitary(d, list(seed) + [j]))
    mat = local @ rho.mat @ local.conj().T
    return DensityMatrix(rho.dims, (mat + mat.conj().T) / 2)


ORACLE_ROUND = 6


def _oracle_inputs(seed: int, n: int) -> list[DensityMatrix]:
    # catalogue entry c has rank 2 + c % 3, so a round holds each rank twice
    catalogue = [random_density_dims((2, 2), 2 + c % 3, [_ORACLE, c])
                 for c in range(ORACLE_ROUND)]
    return [framed(catalogue[(seed + k) % ORACLE_ROUND], [seed, k]) for k in range(n)]


def _pair_inputs(tag: int, seed: int, n: int) -> list[tuple[DensityMatrix, DensityMatrix]]:
    """n rank-2 two-qubit factor pairs, rotated to start at entry seed mod n."""
    pairs = [tuple(random_density_dims((2, 2), 2, [tag, c, j]) for j in (0, 1))
             for c in range(n)]
    return pairs[seed % n:] + pairs[:seed % n]


_PROBE_KINDS = (
    ("question1",),
    ("question2",),
    ("superadditivity", "--source", "case1"),
    ("superadditivity", "--source", "werner"),
    ("superadditivity", "--source", "random"),
)
PROBE_TRIALS = 200


def _probe_inputs(seed: int, n: int) -> list[list[str]]:
    seeds = np.random.default_rng([seed, 104]).integers(0, 2**31, size=n)
    kinds = len(_PROBE_KINDS)
    return [["probe", _PROBE_KINDS[k % kinds][0], "--trials", str(PROBE_TRIALS),
             "--seed", str(int(seeds[k])), *_PROBE_KINDS[k % kinds][1:]]
            for k in range(n)]


# -- ops and checks ----------------------------------------------------------------
# An op takes (input, op index) and returns the library's output; a check
# takes (input, output) and returns (failure reason or None, finding).

def _oracle_op(rho, k):
    return eoflab.eof_minimize(rho, (0,), EofOptions(restarts=20, ensemble_size=8, seed=k))


def _oracle_check(rho, est):
    err = abs(est.value - wootters_eof(rho.mat))
    return (None if err <= 1e-6 else f"|value - wootters| = {err:.3e} > 1e-6"), False


def _pair_op(pair, k):
    rho_a, rho_b = pair
    factor_opts = EofOptions(restarts=6, seed=22)
    est_a = eoflab.eof_minimize(rho_a, (0,), factor_opts)
    est_b = eoflab.eof_minimize(rho_b, (0,), factor_opts)
    warm = eoflab.product_ensemble(est_a.best_ensemble, est_b.best_ensemble)
    est = eoflab.eof_minimize(eoflab.tensor(rho_a, rho_b), (0, 2),
                              EofOptions(restarts=4, seed=21), warm_starts=[warm])
    return est_a, est_b, est


def _pair_check(pair, out):
    ref = sum(wootters_eof(rho.mat) for rho in pair)
    err = abs(out[2].value - ref)
    return (None if err <= 2e-3 else f"|product - wootters sum| = {err:.3e} > 2e-3"), False


def _chain_op(pair, k):
    return eoflab.relation_chain_check(*pair, opts=EofOptions(restarts=2, seed=6))


def _chain_check(pair, report):
    if not report.passed:
        return "relation_chain_check did not pass", False
    ref = sum(wootters_eof(rho.mat) for rho in pair)
    err = max(abs(part["value"] - ref) for part in report.per_sample)
    return (None if err <= 1e-6 else f"max |part - wootters sum| = {err:.3e} > 1e-6"), False


def _probe_op(argv, k):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = eoflab.cli.main(argv)
    return code, out.getvalue()


def check_probe(argv: list[str], output: tuple[int, str]):
    """Failure reason (or None) and whether the op is a known finding.

    A violation reported with exit code 1 on a random source is a finding
    of the search, not a failure; on case1 or werner (where the relation is
    a theorem) it is a failure.
    """
    code, text = output
    if code == 2:
        return "exit code 2", False
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}", False
    violation = bool(payload["violation_found"])
    if code != int(violation):
        return f"exit code {code} with violation_found={violation}", False
    gap = eoflab.reevaluate_argmin(payload["argmin"])
    if not abs(gap - payload["argmin"]["gap"]) <= 1e-9:
        return f"argmin gap {payload['argmin']['gap']!r} re-evaluates to {gap!r}", False
    source = argv[argv.index("--source") + 1] if "--source" in argv else "random"
    if violation and source != "random":
        return f"violation on source {source}", False
    return None, violation


# -- fingerprints: what must repeat exactly between untraced and traced passes ---

def _estimate_fingerprint(est) -> list:
    return [est.value, list(est.restart_values), est.iterations, est.converged]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, int], list]          # (seed, pool size) -> inputs
    op: Callable[[Any, int], Any]              # the timed library call
    check: Callable[[Any, Any], tuple]         # -> (failure reason | None, finding)
    fingerprint: Callable[[Any], Any]
    round_ops: int                             # a run ends on a multiple of this
    trace_ops: int                             # ops in each pass of a traced run

    def inputs(self, seed: int) -> list:
        return self.build(seed, _POOL[self.name])


WORKLOADS = {w.name: w for w in (
    Workload(
        "oracle-2q",
        "the common compute-E_f call: 20-restart m=8 search on a rank 2-4 two-qubit "
        "state, checked against the Wootters closed form",
        _oracle_inputs, _oracle_op, _oracle_check, _estimate_fingerprint,
        round_ops=ORACLE_ROUND, trace_ops=6),
    Workload(
        "pair-additivity",
        "weak-additivity pair: two factor searches, then a warm-started m=16 product "
        "search, where the m=16 objective kernel dominates",
        lambda seed, n: _pair_inputs(_PAIR, seed, n), _pair_op, _pair_check,
        lambda out: [_estimate_fingerprint(e) for e in out],
        round_ops=_POOL["pair-additivity"], trace_ops=2),
    Workload(
        "relation-chain",
        "four m=16 product searches through the custom member_cost path, which "
        "keeps finite-difference gradients",
        lambda seed, n: _pair_inputs(_CHAIN, seed, n), _chain_op, _chain_check,
        lambda report: report.to_json(),
        round_ops=_POOL["relation-chain"], trace_ops=3),
    Workload(
        "probe-cli",
        "in-process eof probe CLI calls over five probe kinds; never runs the search, "
        "so search optimisations should leave it unchanged",
        _probe_inputs, _probe_op, check_probe, lambda out: list(out),
        round_ops=len(_PROBE_KINDS), trace_ops=20),
)}
