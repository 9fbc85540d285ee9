"""Numerical verification of entropy relations and counterexample searches.

Deterministic checks of identities/inequalities return a CheckReport;
randomized searches for violations of open conjectures return a
ProbeResult.  Both serialize byte-identically for a given input, so runs
can be archived, diffed, and re-verified, and every reported candidate
violation carries enough data (`argmin`) to be recomputed from scratch
with `reevaluate_argmin`.  Every decomposition here is an `Ensemble`, and
an argmin stores one in the ensemble-file layout.

The probes evaluate the members of a trial as one stack, not one state at a
time: `product_decomposition_members` and `pair_superadditivity_gap` make
one reduction per cut and one eigen-solve per stack, and a member's values
do not depend on the stack it came in, so re-evaluating an argmin member
alone gives the same bits.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .ensembles import (
    Ensemble,
    check_isometry,
    eigen_ensemble,
    ensemble_to_payload,
    flagged_state,
    hjw_ensemble,
    payload_to_ensemble,
    product_ensemble,
    support_decomposition,
)
from .eof import (
    EofOptions,
    MemberCost,
    cut_member_cost,
    ensemble_average_entanglement,
    entropy_value_grad,
    eof_minimize,
    eof_wootters_2q,
    eof_wootters_stack,
    minimize_over_decompositions,
    wootters_value_grad,
)
from .qmat import ShapeError
from .qstate import (
    DensityMatrix,
    PureState,
    check_state_vectors,
    complex_to_pairs,
    density_spectra,
    pairs_to_complex,
    partial_trace,
    payload_to_state,
    reduced_operators,
    reduced_state,
    shannon_entropy,
    spectral_entropy,
    state_to_payload,
    tensor,
    von_neumann_entropy,
)
from .statezoo import (
    Case1Spec,
    Case2Spec,
    case1_conditional,
    case1_state,
    case2_ensemble,
    case2_factor,
    random_density_dims,
    random_isometry,
    random_pure,
    werner_two_pair,
)

GAP_TOL = 1e-9

SEARCH_CAVEAT = (
    "A finite random search cannot prove a relation, only exhibit counterexamples. "
    "Gaps here are exact entropy evaluations, so a reproducible gap below -slack is "
    "a genuine violation of the conjectured inequality."
)

UPPER_BOUND_CAVEAT = (
    "Entanglement terms computed by minimization are upper bounds unless exact_terms "
    "is true, so each reported gap is a lower bound on the true gap: positive gaps "
    "are conservative evidence the relation holds, while a negative gap is only a "
    "candidate violation to be reproduced (it is conclusive when exact_terms is "
    "true, because then the subtracted terms are closed-form)."
)


def _plain(obj):
    """Recursively coerce report contents to JSON-serializable Python types."""
    if obj is None or isinstance(obj, (str, bool, int, float)):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            raise TypeError("complex arrays must be encoded as [re, im] pairs first")
        return _plain(obj.tolist())
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


class _ReportSerialization:
    """Shared to_dict/to_json/to_csv for the report dataclasses."""

    _ITEM_FIELD = ""

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            out[f.name] = _plain(getattr(self, f.name))
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        def cell(v):
            return v if isinstance(v, str) else json.dumps(v, sort_keys=True)

        d = self.to_dict()
        items = d.pop(self._ITEM_FIELD, [])
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "index", "field", "value"])
        name = d.pop("name")
        for key in sorted(d):
            w.writerow([name, "", key, cell(d[key])])
        for i, entry in enumerate(items):
            for key in sorted(entry):
                w.writerow([name, i, key, cell(entry[key])])
        return buf.getvalue()


@dataclass(frozen=True)
class CheckReport(_ReportSerialization):
    """Outcome of a deterministic numerical check.

    semantics says how `passed` was decided: "identity" (every residual
    within tol), "inequality" (every gap above -slack), "mixed" (both
    kinds of parts present), or "consistency" (independent estimates of
    one quantity agree within slack).  Unused aggregate fields are None.
    """

    name: str
    semantics: str
    samples: int
    seed: int | None
    tol: float | None
    slack: float | None
    min_gap: float | None
    max_abs_residual: float | None
    passed: bool
    per_sample: tuple = ()
    extra: dict = field(default_factory=dict)

    _ITEM_FIELD = "per_sample"


@dataclass(frozen=True)
class ProbeResult(_ReportSerialization):
    """Outcome of a randomized counterexample search for one relation.

    The most negative gap seen is `min_gap`; `argmin` holds the fully
    serialized instance that produced it, accepted by reevaluate_argmin.
    """

    name: str
    trials: int
    seed: int | None
    slack: float
    min_gap: float
    violation_found: bool
    argmin: dict
    caveat: str
    per_trial: tuple = ()
    extra: dict = field(default_factory=dict)
    semantics: str = "violation-search"

    _ITEM_FIELD = "per_trial"


def _require_count(name: str, value: int) -> None:
    """A check or search over no samples would pass vacuously; refuse it."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")


# ---------------------------------------------------------------------------
# entropy identities and inequalities

def check_flagged_identity(samples: int = 100, dims=(2, 3, 4), members=(2, 3, 4),
                           seed: int = 0, tol: float = GAP_TOL) -> CheckReport:
    """S(sum_i p_i rho_i (x) |i><i|) = H(p) + sum_i p_i S(rho_i).

    Random mixed-state families over the given dimension and flag-count
    pools; the residual must vanish to working precision every time.
    """
    _require_count("samples", samples)
    per = []
    worst = 0.0
    for k in range(samples):
        rng = np.random.default_rng([seed, k])
        m = int(rng.choice(members))
        d = int(rng.choice(dims))
        p = rng.dirichlet(np.ones(m))
        states = [random_density_dims((d,), int(rng.integers(1, d + 1)), rng) for _ in range(m)]
        lhs = von_neumann_entropy(flagged_state(p, states))
        rhs = shannon_entropy(p) + sum(
            float(w) * von_neumann_entropy(s) for w, s in zip(p, states)
        )
        resid = lhs - rhs
        worst = max(worst, abs(resid))
        per.append({"sample": k, "flags": m, "dim": d, "residual": float(resid)})
    return CheckReport(
        name="flagged-identity", semantics="identity", samples=samples, seed=seed,
        tol=tol, slack=None, min_gap=None, max_abs_residual=float(worst),
        passed=worst <= tol, per_sample=tuple(per),
    )


def check_strong_concavity(samples: int = 100, dims=(2, 3), members=(2, 3, 4),
                           seed: int = 0, tol: float = GAP_TOL) -> CheckReport:
    """Concavity family for mixtures of product states.

    Per sample, five gaps that must all be nonnegative:
      strong1      S(sum p rho_i (x) sigma_i) - sum p S(rho_i) - S(sum p sigma_i)
      strong2      the mirror image (entropies averaged on the second slot)
      concavity    S(sum p rho_i) - sum p S(rho_i)
      mix-upper    H(p) + sum p S(rho_i) - S(sum p rho_i)
      mix-pure     H(p) - S(sum p |phi_i><phi_i|)   (pure members only;
                   false for general mixed members, hence the restriction)
    strong1/strong2 sharpen concavity on product mixtures: the joint
    entropy dominates the averaged entropy of either slot plus the mixture
    entropy of the other (equality when the averaged slot is constant, or
    when the mixed slot's members are orthogonal flags).
    """
    _require_count("samples", samples)
    per = []
    worst = math.inf
    for k in range(samples):
        rng = np.random.default_rng([seed, k])
        m = int(rng.choice(members))
        d1 = int(rng.choice(dims))
        d2 = int(rng.choice(dims))
        p = rng.dirichlet(np.ones(m))
        first = [random_density_dims((d1,), int(rng.integers(1, d1 + 1)), rng) for _ in range(m)]
        second = [random_density_dims((d2,), int(rng.integers(1, d2 + 1)), rng) for _ in range(m)]
        joint = DensityMatrix(
            (d1, d2),
            sum(float(w) * np.kron(a.mat, b.mat) for w, a, b in zip(p, first, second)),
        )
        mix1 = DensityMatrix((d1,), sum(float(w) * a.mat for w, a in zip(p, first)))
        mix2 = DensityMatrix((d2,), sum(float(w) * b.mat for w, b in zip(p, second)))
        s_joint = von_neumann_entropy(joint)
        avg1 = sum(float(w) * von_neumann_entropy(a) for w, a in zip(p, first))
        avg2 = sum(float(w) * von_neumann_entropy(b) for w, b in zip(p, second))
        pure = [random_pure((d2,), rng) for _ in range(m)]
        pure_mix = DensityMatrix(
            (d2,), sum(float(w) * np.outer(s.vec, s.vec.conj()) for w, s in zip(p, pure))
        )
        gaps = {
            "strong1": s_joint - avg1 - von_neumann_entropy(mix2),
            "strong2": s_joint - von_neumann_entropy(mix1) - avg2,
            "concavity": von_neumann_entropy(mix1) - avg1,
            "mix-upper": shannon_entropy(p) + avg1 - von_neumann_entropy(mix1),
            "mix-pure": shannon_entropy(p) - von_neumann_entropy(pure_mix),
        }
        low = min(gaps.values())
        worst = min(worst, low)
        entry = {"sample": k, "flags": m, "dims": [d1, d2], "gap": float(low)}
        entry.update({name: float(v) for name, v in gaps.items()})
        per.append(entry)
    return CheckReport(
        name="strong-concavity", semantics="inequality", samples=samples, seed=seed,
        tol=None, slack=tol, min_gap=float(worst), max_abs_residual=None,
        passed=worst >= -tol, per_sample=tuple(per),
    )


def ssa_gap(rho: DensityMatrix) -> float:
    """S(rho_12) + S(rho_23) - S(rho_123) - S(rho_2), nonnegative by SSA."""
    if len(rho.dims) != 3:
        raise ShapeError(f"need exactly 3 subsystems, got dims {rho.dims}")
    s123 = von_neumann_entropy(rho)
    s12 = von_neumann_entropy(partial_trace(rho, (0, 1)))
    s23 = von_neumann_entropy(partial_trace(rho, (1, 2)))
    s2 = von_neumann_entropy(partial_trace(rho, (1,)))
    return s12 + s23 - s123 - s2


def check_ssa(samples: int = 100, dims=(2, 2, 2), seed: int = 0,
              tol: float = GAP_TOL) -> CheckReport:
    """Strong subadditivity on tripartite reductions of random pure states.

    Each sample purifies a generic full-rank tripartite state (random
    four-party pure state, fourth subsystem as large as the first three
    combined).  A product family rho_12 (x) rho_3, where SSA is tight, is
    evaluated alongside and its |gap| recorded in extra.
    """
    _require_count("samples", samples)
    dims = tuple(int(d) for d in dims)
    per = []
    worst = math.inf
    for k in range(samples):
        rng = np.random.default_rng([seed, k])
        psi = random_pure(dims + (math.prod(dims),), rng)
        gap = ssa_gap(reduced_state(psi, (0, 1, 2)))
        worst = min(worst, gap)
        per.append({"sample": k, "gap": float(gap)})
    equality = 0.0
    for k in range(10):
        rng = np.random.default_rng([seed, 10_000 + k])
        front = random_density_dims(dims[:2], int(rng.integers(1, dims[0] * dims[1] + 1)), rng)
        back = random_density_dims(dims[2:], int(rng.integers(1, dims[2] + 1)), rng)
        prod = DensityMatrix(dims, np.kron(front.mat, back.mat))
        equality = max(equality, abs(ssa_gap(prod)))
    return CheckReport(
        name="ssa", semantics="inequality", samples=samples, seed=seed,
        tol=None, slack=tol, min_gap=float(worst), max_abs_residual=None,
        passed=worst >= -tol and equality <= tol, per_sample=tuple(per),
        extra={"product_equality_residual": float(equality)},
    )


# ---------------------------------------------------------------------------
# doubled Schmidt family (four parties sharing one index pattern)

def _pair_eof(rho: DensityMatrix, warm: Sequence[Ensemble] = (),
              opts: EofOptions | None = None) -> tuple[float, bool]:
    """EoF of a two-subsystem state: closed form at qubit scale, else search."""
    if rho.dims == (2, 2):
        return eof_wootters_2q(rho), True
    return eof_minimize(rho, (0,), opts, warm_starts=warm).value, False


def check_case1(spec: Case1Spec, opts: EofOptions | None = None,
                tol: float = GAP_TOL, slack: float = 1e-3) -> CheckReport:
    """Identities and bounds for the doubled-Schmidt pure family.

    With the four parties grouped as pairs (A,A') vs (B,B'), the state's
    structure gives two exact conditional-entropy identities
        S(rho_AA') = S(rho_A)  + sum_a w_a S_E(row-conditional a)
        S(rho_AA') = S(rho_A') + sum_b w_b S_E(col-conditional b)
    and three inequalities that follow from them:
        S(rho_AA') >= S(rho_A)  + E_f(rho_A'B')
        S(rho_AA') >= S(rho_A') + E_f(rho_AB)
        S(rho_AA') >= E_f(rho_AB) + E_f(rho_A'B')
    E_f terms use the closed two-qubit form when applicable, otherwise the
    decomposition search warm-started from the conditional-state ensemble
    (whose average equals the identity's right side, so the computed gaps
    cannot go negative by more than the optimizer's own tolerance).
    """
    if opts is None:
        opts = EofOptions(restarts=8, seed=11)
    psi = case1_state(spec)
    rows = spec.row_weights
    cols = spec.col_weights
    s_aa = von_neumann_entropy(reduced_state(psi, (0, 2)))
    s_a = von_neumann_entropy(reduced_state(psi, (0,)))
    s_ap = von_neumann_entropy(reduced_state(psi, (2,)))

    cond_rows = [(float(w), case1_conditional(spec, a))
                 for a, w in enumerate(rows) if w > 1e-14]
    transposed = Case1Spec(spec.weights.T)
    cond_cols = [(float(w), case1_conditional(transposed, b))
                 for b, w in enumerate(cols) if w > 1e-14]
    avg_rows = sum(w * von_neumann_entropy(reduced_state(c, (0,))) for w, c in cond_rows)
    avg_cols = sum(w * von_neumann_entropy(reduced_state(c, (0,))) for w, c in cond_cols)
    medium = s_aa - s_a - avg_rows
    medium2 = s_aa - s_ap - avg_cols

    ens_apbp = Ensemble(np.array([w for w, _ in cond_rows]),
                        tuple(c for _, c in cond_rows))
    ens_ab = Ensemble(np.array([w for w, _ in cond_cols]),
                      tuple(c for _, c in cond_cols))
    ef_apbp, exact_ap = _pair_eof(reduced_state(psi, (2, 3)), [ens_apbp], opts)
    ef_ab, exact_ab = _pair_eof(reduced_state(psi, (0, 1)), [ens_ab], opts)

    parts = [
        {"part": "row-conditional-identity", "kind": "identity", "value": float(medium)},
        {"part": "col-conditional-identity", "kind": "identity", "value": float(medium2)},
        {"part": "marginal-plus-eof", "kind": "inequality",
         "value": float(s_aa - s_a - ef_apbp)},
        {"part": "eof-plus-marginal", "kind": "inequality",
         "value": float(s_aa - s_ap - ef_ab)},
        {"part": "eof-superadditivity", "kind": "inequality",
         "value": float(s_aa - ef_ab - ef_apbp)},
    ]
    resid = max(abs(p["value"]) for p in parts if p["kind"] == "identity")
    gap = min(p["value"] for p in parts if p["kind"] == "inequality")
    return CheckReport(
        name="case1", semantics="mixed", samples=1, seed=None,
        tol=tol, slack=slack, min_gap=float(gap), max_abs_residual=float(resid),
        passed=resid <= tol and gap >= -slack, per_sample=tuple(parts),
        extra={
            "shape": [int(x) for x in spec.weights.shape],
            "entropy_pair": float(s_aa), "entropy_a": float(s_a),
            "entropy_a_prime": float(s_ap),
            "eof_ab": float(ef_ab), "eof_a_prime_b_prime": float(ef_apbp),
            "closed_form": [bool(exact_ab), bool(exact_ap)],
        },
    )


def case1_suite(samples: int = 20, shapes=((2, 2), (2, 3), (3, 2), (3, 3)),
                seed: int = 0, tol: float = GAP_TOL, slack: float = 1e-3,
                opts: EofOptions | None = None) -> CheckReport:
    """check_case1 over seeded weight matrices, plus two exact landmarks.

    Sample 0 is the uniform 2x2 matrix (a product of two Bell pairs, every
    quantity known exactly); sample 1 is diagonal (classically correlated,
    both EoF terms zero).  The rest draw Dirichlet weight matrices over the
    allowed shapes.
    """
    _require_count("samples", samples)
    shapes = tuple(tuple(int(x) for x in s) for s in shapes)
    specs: list[Case1Spec] = [
        Case1Spec(np.full((2, 2), 0.25)),
        Case1Spec(np.diag([0.5, 0.5])),
    ]
    for k in range(max(samples - len(specs), 0)):
        rng = np.random.default_rng([seed, k])
        r, c = shapes[int(rng.integers(len(shapes)))]
        specs.append(Case1Spec(rng.dirichlet(np.ones(r * c)).reshape(r, c)))
    specs = specs[:samples]

    per = []
    gap = math.inf
    resid = 0.0
    for k, spec in enumerate(specs):
        rep = check_case1(spec, opts=opts, tol=tol, slack=slack)
        gap = min(gap, rep.min_gap)
        resid = max(resid, rep.max_abs_residual)
        per.append({
            "sample": k, "shape": rep.extra["shape"], "min_gap": rep.min_gap,
            "max_abs_residual": rep.max_abs_residual, "passed": rep.passed,
        })
    return CheckReport(
        name="case1-suite", semantics="mixed", samples=len(specs), seed=seed,
        tol=tol, slack=slack, min_gap=float(gap), max_abs_residual=float(resid),
        passed=all(p["passed"] for p in per), per_sample=tuple(per),
    )


# ---------------------------------------------------------------------------
# locally flagged mixtures: member-level bounds and additivity

def product_decomposition_members(fa: Ensemble, fb: Ensemble, iso) -> list[dict]:
    """Member-level data for a decomposition of mix(fa) (x) mix(fb).

    Each factor is a two-subsystem ensemble of orthonormal members, the
    flags, with positive weights (eigen_ensemble, case2_ensemble).  The
    isometry's columns act on the product of the member bases, first factor
    major: column J*len(fb) + K multiplies sqrt(w_J w_K) |J>|K>.  Members
    with negligible probability are dropped (their original row index is
    kept in "index").  Each entry carries, for the member psi_i on the
    four parties (A, B, A', B'):

      gap_member     S(rho_AA') - sum_K w_K S(A-part given flag K, normalized)
                     - S(rho_A'), the flag-averaged pair bound whose
                     probability average upper-bounds both pair EoFs
      gap_question1  S(rho_AA') minus both flag-split entropy sums taken
                     literally on the subnormalized flag components
      gap_question2  S(rho_AA') + S(flag/flag mixture) - S(A/flag mixture)
                     - S(flag/A' mixture), an SSA-shaped comparison of the
                     three trace-one flagged operators (terms in entry)

    The kept members are built and evaluated as one stack, with
    PureState's and DensityMatrix's checks on every member and reduction.
    """
    for f in (fa, fb):
        if len(f.dims) != 2:
            raise ShapeError(f"need two-subsystem factors, got dims {f.dims}")
        if float(f.weights.min()) <= 0.0:  # Ensemble allows 0 and -1e-12
            raise ValueError("factor weights must be strictly positive")
    vec_a = check_isometry(np.column_stack([s.vec for s in fa.states]))
    vec_b = check_isometry(np.column_stack([s.vec for s in fb.states]))
    iso = check_isometry(iso)
    nj, nk = len(fa), len(fb)
    if iso.shape[1] != nj * nk:
        raise ShapeError(f"isometry has {iso.shape[1]} columns, expected {nj * nk}")
    lj, lk = fa.weights, fb.weights
    da, db = fa.dims
    dap, dbp = fb.dims
    dims = (da, db, dap, dbp)
    # flag reductions: the left reduction of each factor member
    xa = vec_a.T.reshape(nj, da, db)
    xb = vec_b.T.reshape(nk, dap, dbp)
    sig_j = np.einsum("nab,ncb->nac", xa, xa.conj())
    sig_k = np.einsum("nab,ncb->nac", xb, xb.conj())

    # every kept member at once: axis 0 of each stack runs over the members
    u = iso.reshape(-1, nj, nk)
    amp = u * np.sqrt(np.outer(lj, lk))
    p = (np.abs(amp) ** 2).sum(axis=(1, 2))
    index = np.flatnonzero(p > 1e-14)
    u, amp, p = u[index], amp[index], p[index]
    root_p = np.sqrt(p)
    vecs = (vec_a @ (amp / root_p[:, None, None]) @ vec_b.T).reshape(len(index), -1)
    check_state_vectors(dims, vecs)
    s_pair = spectral_entropy(density_spectra(reduced_operators(vecs, dims, (0, 2))))
    s_ap = spectral_entropy(density_spectra(reduced_operators(vecs, dims, (2,))))

    # flag-resolved components: right_ops[:, K] is the A-reduction of the
    # (subnormalized) piece of psi lying over the second factor's flag K,
    # left_ops[:, J] the A'-reduction over the first factor's flag J.  Each
    # piece is a mat-vec product divided by sqrt(p) after the product: a
    # matrix-matrix product, or dividing first, moves fields in the last bits
    right = np.ascontiguousarray((u * np.sqrt(lj)[:, None]).transpose(0, 2, 1))
    x = (vec_a @ right[..., None] / root_p[:, None, None, None]).reshape(-1, nk, da, db)
    right_ops = x @ np.swapaxes(x.conj(), -1, -2)
    x = (vec_b @ (u * np.sqrt(lk))[..., None] / root_p[:, None, None, None])
    x = x.reshape(-1, nj, dap, dbp)
    left_ops = x @ np.swapaxes(x.conj(), -1, -2)
    t_right = np.einsum("...kaa->...k", right_ops).real
    t_left = np.einsum("...jaa->...j", left_ops).real
    w_right = lk * t_right
    w_left = lj * t_left
    # one eigen-solve per stack serves the normalized and the literal sums
    vals_right = np.clip(np.linalg.eigvalsh(right_ops), 0.0, None)
    vals_left = np.clip(np.linalg.eigvalsh(left_ops), 0.0, None)

    live = t_right > 1e-14
    normalized = spectral_entropy(vals_right / np.where(live, t_right, 1.0)[..., None])
    s_hat = np.where(live, w_right * normalized, 0.0).sum(axis=-1)
    gap_member = s_pair - s_hat - s_ap

    lit_right = (lk * spectral_entropy(vals_right)).sum(axis=-1)
    lit_left = (lj * spectral_entropy(vals_left)).sum(axis=-1)
    gap_q1 = s_pair - lit_right - lit_left

    nu = (np.abs(u) ** 2) * np.outer(lj, lk) / p[:, None, None]
    flagged = np.stack([
        np.einsum("k,mkab,kcd->macbd", lk, right_ops, sig_k),   # A / flag
        np.einsum("j,jab,mjcd->macbd", lj, sig_j, left_ops),    # flag / A'
        np.einsum("mjk,jab,kcd->macbd", nu, sig_j, sig_k),      # flag / flag
    ], axis=1).reshape(-1, 3, da * dap, da * dap)
    term1, term2, term3 = spectral_entropy(np.clip(np.linalg.eigvalsh(flagged), 0.0, None)).T
    gap_q2 = s_pair + term3 - term1 - term2

    columns = {
        "p": p, "entropy_pair": s_pair, "entropy_a_prime": s_ap,
        "gap_member": gap_member, "gap_question1": gap_q1, "gap_question2": gap_q2,
        "term_a_flag": term1, "term_flag_a_prime": term2, "term_flag_flag": term3,
        "flag_weight_sum": w_right.sum(axis=-1),
        "flag_weight_sum_left": w_left.sum(axis=-1),
    }
    return [{"index": int(i), **{key: float(col[n]) for key, col in columns.items()}}
            for n, i in enumerate(index)]


def check_case2(spec_a: Case2Spec, spec_b: Case2Spec, opts: EofOptions | None = None,
                decomposition_samples: int = 20, members: int = 8,
                member_slack: float = 2e-3, slack: float = 2e-2,
                seed: int = 0, additivity: bool = True) -> CheckReport:
    """Member bounds and EoF additivity for locally flagged mixtures.

    Part one samples random decompositions of the product state and checks
    the flag-averaged pair bound (gap_member) on every member; for this
    family the bound is an exact consequence of strong concavity, so gaps
    may only dip below zero by optimizer-free numerical noise (member_slack
    is generous).  Part two compares the searched product EoF against the
    sum of the factor EoFs, each factor warm-started from its block
    ensemble, which is exactly optimal for this family.
    """
    _require_count("decomposition_samples", decomposition_samples)
    _require_count("members", members)
    ens_a = case2_ensemble(spec_a)
    ens_b = case2_ensemble(spec_b)
    per = []
    min_member = math.inf
    weight_err = 0.0
    n = len(ens_a) * len(ens_b)
    for t in range(decomposition_samples):
        iso = random_isometry(max(int(members), n), n, [seed, t])
        mem = product_decomposition_members(ens_a, ens_b, iso)
        gaps = [d["gap_member"] for d in mem]
        werr = max(abs(d["flag_weight_sum"] - 1.0) for d in mem)
        weight_err = max(weight_err, werr)
        min_member = min(min_member, min(gaps))
        per.append({"sample": t, "members": len(mem), "min_gap": float(min(gaps)),
                    "weight_sum_error": float(werr)})

    extra = {
        "member_slack": float(member_slack),
        "flag_weight_sum_error": float(weight_err),
        "block_eof": [
            float(ensemble_average_entanglement(ens_a, (0,))),
            float(ensemble_average_entanglement(ens_b, (0,))),
        ],
    }
    passed = min_member >= -member_slack and weight_err <= GAP_TOL
    residual = None
    if additivity:
        if opts is None:
            opts = EofOptions(restarts=6, seed=5)
        factor_opts = EofOptions(restarts=4, seed=opts.seed)
        rho_a = case2_factor(spec_a)
        rho_b = case2_factor(spec_b)
        ef_a, _ = _pair_eof(rho_a, [ens_a], factor_opts)
        ef_b, _ = _pair_eof(rho_b, [ens_b], factor_opts)
        est = eof_minimize(tensor(rho_a, rho_b), (0, 2), opts,
                           warm_starts=[product_ensemble(ens_a, ens_b)])
        residual = est.value - (ef_a + ef_b)
        extra.update({
            "factor_eof": [float(ef_a), float(ef_b)],
            "product_eof": float(est.value),
            "additivity_residual": float(residual),
        })
        passed = passed and abs(residual) <= slack
    return CheckReport(
        name="case2", semantics="mixed", samples=decomposition_samples, seed=seed,
        tol=slack, slack=member_slack, min_gap=float(min_member),
        max_abs_residual=None if residual is None else float(abs(residual)),
        passed=passed, per_sample=tuple(per), extra=extra,
    )


def check_weak_additivity(pairs: int = 10, seed: int = 0, slack: float = 2e-3,
                          opts: EofOptions | None = None,
                          factor_opts: EofOptions | None = None,
                          dims=(2, 2), rank: int = 2) -> CheckReport:
    """E_f(rho1 (x) rho2) never exceeds E_f(rho1) + E_f(rho2) numerically.

    The product of optimal factor decompositions is itself a decomposition
    of the product, so the searched value must land at or below the sum;
    the check warm-starts from exactly that product and flags gaps below
    -slack.  A product value clearly *below* the sum would be evidence
    against additivity itself; the largest such surplus is reported.
    """
    _require_count("pairs", pairs)
    dims = tuple(int(d) for d in dims)
    if opts is None:
        opts = EofOptions(restarts=4, seed=21)
    if factor_opts is None:
        factor_opts = EofOptions(restarts=6, seed=22)
    per = []
    worst = math.inf
    surplus = 0.0
    for k in range(pairs):
        rng = np.random.default_rng([seed, k])
        rho_a = random_density_dims(dims, rank, rng)
        rho_b = random_density_dims(dims, rank, rng)
        est_a = eof_minimize(rho_a, (0,), factor_opts)
        est_b = eof_minimize(rho_b, (0,), factor_opts)
        if dims == (2, 2):
            ef_a, ef_b = eof_wootters_2q(rho_a), eof_wootters_2q(rho_b)
        else:
            ef_a, ef_b = est_a.value, est_b.value
        warm = product_ensemble(est_a.best_ensemble, est_b.best_ensemble)
        est = eof_minimize(tensor(rho_a, rho_b), (0, 2), opts, warm_starts=[warm])
        gap = ef_a + ef_b - est.value
        worst = min(worst, gap)
        surplus = max(surplus, gap)
        per.append({"sample": k, "eof_a": float(ef_a), "eof_b": float(ef_b),
                    "eof_product": float(est.value), "gap": float(gap)})
    return CheckReport(
        name="weak-additivity", semantics="inequality", samples=pairs, seed=seed,
        tol=None, slack=slack, min_gap=float(worst), max_abs_residual=None,
        passed=worst >= -slack, per_sample=tuple(per),
        extra={"max_gap": float(surplus)},
    )


# ---------------------------------------------------------------------------
# counterexample searches

def pair_superadditivity_gap(states: PureState | Sequence[PureState],
                             opts: EofOptions | None = None) -> list[tuple[float, dict]]:
    """S(rho_AA') - E_f(rho_AB) - E_f(rho_A'B') for a stack of four-party pure states.

    Parties are ordered (A, B, A', B'); every state in the stack has the same
    dims, and a single PureState is a stack of one.  The stack is evaluated
    in one pass: one reduction per cut, one eigen-solve per stack, and the
    closed two-qubit form on the whole stack for a pair of dims (2, 2); a
    pair of other dims falls back to a search per state.  Returns one
    (gap, detail) per state; detail's exact_terms says whether both EoF
    terms used the closed form (otherwise they are upper bounds and the gap
    a lower bound).
    """
    states = [states] if isinstance(states, PureState) else list(states)
    if not states:
        raise ValueError("need at least one state")
    dims = states[0].dims
    if len(dims) != 4:
        raise ShapeError(f"need four subsystems, got dims {dims}")
    if any(s.dims != dims for s in states):
        raise ShapeError(f"every state in the stack needs dims {dims}")
    vecs = np.stack([s.vec for s in states])
    s_pair = spectral_entropy(density_spectra(reduced_operators(vecs, dims, (0, 2))))
    eofs = []
    for cut in ((0, 1), (2, 3)):
        mats = reduced_operators(vecs, dims, cut)
        pair_dims = tuple(dims[i] for i in cut)
        if pair_dims == (2, 2):
            eofs.append((eof_wootters_stack(mats), True))
        else:
            values = [eof_minimize(DensityMatrix(pair_dims, m), (0,), opts).value for m in mats]
            eofs.append((np.array(values), False))
    (ef_ab, exact1), (ef_apbp, exact2) = eofs
    gaps = s_pair - ef_ab - ef_apbp
    return [(float(gaps[n]), {
        "entropy_pair": float(s_pair[n]), "eof_ab": float(ef_ab[n]),
        "eof_a_prime_b_prime": float(ef_apbp[n]), "exact_terms": exact1 and exact2,
    }) for n in range(len(states))]


def superadditivity_probe(source: str = "random", trials: int = 100, seed: int = 0,
                          slack: float = 1e-6, phi: float = -1.0) -> ProbeResult:
    """Search for pair-entropy vs EoF-sum violations over pure four-party states.

    Sources: "random" draws Haar-like two-pair pure states, "case1" draws
    doubled-Schmidt states from Dirichlet weights (where the relation is a
    theorem), "werner" walks decomposition members of the two-pair view of
    the d = 4 collective-symmetry state at flip expectation `phi`.
    """
    _require_count("trials", trials)
    if source not in ("random", "case1", "werner"):
        raise ValueError(f"unknown source {source!r}")
    rho_w = werner_two_pair(phi) if source == "werner" else None
    rank_w = int(support_decomposition(rho_w)[0].size) if rho_w is not None else 0
    per = []
    best_gap = math.inf
    argmin: dict = {}
    exact_all = True
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        if source == "random":
            candidates = [random_pure((2, 2, 2, 2), rng)]
        elif source == "case1":
            w = rng.dirichlet(np.ones(4)).reshape(2, 2)
            candidates = [case1_state(Case1Spec(w))]
        else:
            m = int(rng.integers(rank_w, 2 * rank_w + 1))
            ens = hjw_ensemble(rho_w, random_isometry(m, rank_w, rng))
            candidates = [s for _, s in ens]
        gaps, details = zip(*pair_superadditivity_gap(candidates))
        exact_all = exact_all and all(d["exact_terms"] for d in details)
        idx = int(np.argmin(gaps))
        per.append({"trial": t, "gap": float(gaps[idx]), "members": len(candidates)})
        if gaps[idx] < best_gap:
            best_gap = float(gaps[idx])
            argmin = {
                "relation": "superadditivity", "source": source, "trial": t,
                "member": idx, "gap": best_gap,
                "state": state_to_payload(candidates[idx]),
                "detail": details[idx],
            }
    extra = {"source": source, "exact_terms": bool(exact_all)}
    if source == "werner":
        extra["phi"] = float(phi)
    return ProbeResult(
        name="superadditivity", trials=trials, seed=seed, slack=float(slack),
        min_gap=float(best_gap), violation_found=best_gap < -slack,
        argmin=argmin, caveat=UPPER_BOUND_CAVEAT, per_trial=tuple(per), extra=extra,
    )


def _pinned_factor(obj) -> Ensemble:
    if isinstance(obj, Ensemble):
        return obj
    if isinstance(obj, Case2Spec):
        return case2_ensemble(obj)
    raise TypeError(f"cannot pin a factor to a {type(obj).__name__}; "
                    "pass an Ensemble or a Case2Spec")


def _question_probe(name: str, key: str, factor_a, factor_b, trials: int,
                    members: int, seed: int, slack: float, dims, rank: int,
                    track_implication: bool) -> ProbeResult:
    _require_count("trials", trials)
    _require_count("members", members)
    fixed_a = None if factor_a is None else _pinned_factor(factor_a)
    fixed_b = None if factor_b is None else _pinned_factor(factor_b)
    per = []
    best_gap = math.inf
    argmin: dict = {}
    implication_failures = 0
    min_other = math.inf
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        fa = fixed_a if fixed_a is not None else eigen_ensemble(
            random_density_dims(dims, rank, rng))
        fb = fixed_b if fixed_b is not None else eigen_ensemble(
            random_density_dims(dims, rank, rng))
        n = len(fa) * len(fb)
        m = max(int(members), n)
        iso = random_isometry(m, n, rng)
        mem = product_decomposition_members(fa, fb, iso)
        gaps = [d[key] for d in mem]
        at = int(np.argmin(gaps))
        per.append({"trial": t, "gap": float(gaps[at]), "member": mem[at]["index"],
                    "members": len(mem)})
        if track_implication:
            for d in mem:
                min_other = min(min_other, d["gap_question1"])
                if d["gap_question2"] >= -GAP_TOL and d["gap_question1"] < -GAP_TOL:
                    implication_failures += 1
        if gaps[at] < best_gap:
            best_gap = float(gaps[at])
            argmin = {
                "relation": name, "trial": t, "member": mem[at]["index"],
                "gap": best_gap,
                "factor_a": ensemble_to_payload(fa),
                "factor_b": ensemble_to_payload(fb),
                "isometry": {"shape": [int(m), int(n)],
                             "data": complex_to_pairs(iso.reshape(-1))},
            }
    extra = {
        "members": int(members), "dims": [int(d) for d in dims], "rank": int(rank),
        "fixed_factors": [fixed_a is not None, fixed_b is not None],
    }
    if track_implication:
        extra["implication_failures"] = int(implication_failures)
        extra["min_gap_question1"] = float(min_other)
    return ProbeResult(
        name=name, trials=trials, seed=seed, slack=float(slack),
        min_gap=float(best_gap), violation_found=best_gap < -slack,
        argmin=argmin, caveat=SEARCH_CAVEAT, per_trial=tuple(per), extra=extra,
    )


def probe_question1(factor_a=None, factor_b=None, trials: int = 100,
                    members: int = 8, seed: int = 0, slack: float = 1e-6,
                    dims=(2, 2), rank: int = 2) -> ProbeResult:
    """Can the pair entropy dip below the literal flag-split entropy sums?

    For every sampled decomposition member, compares S(rho_AA') against the
    two flag-resolved entropy sums evaluated literally on the subnormalized
    flag components (gap_question1 of product_decomposition_members).  A
    negative gap answers the corresponding strengthening of pair
    superadditivity in the negative for decomposition members.  Factors
    default to the eigen-ensembles of fresh random states per trial; pass
    an Ensemble (its members are the flags) or a flagged-mixture spec (its
    block ensemble) to pin one.
    """
    return _question_probe("question1", "gap_question1", factor_a, factor_b,
                           trials, members, seed, slack, dims, rank, False)


def probe_question2(factor_a=None, factor_b=None, trials: int = 100,
                    members: int = 8, seed: int = 0, slack: float = 1e-6,
                    dims=(2, 2), rank: int = 2) -> ProbeResult:
    """SSA-shaped comparison of the three flagged operators per member.

    Checks S(rho_AA') + S(flag/flag) >= S(A/flag) + S(flag/A') on every
    sampled member (gap_question2).  This statement implies the flag-split
    bound of probe_question1, so each run also counts members where the
    implication would fail numerically (extra["implication_failures"],
    expected zero).
    """
    return _question_probe("question2", "gap_question2", factor_a, factor_b,
                           trials, members, seed, slack, dims, rank, True)


def reevaluate_argmin(payload: dict, opts: EofOptions | None = None) -> float:
    """Recompute the gap of a serialized probe argmin from scratch."""
    relation = payload["relation"]
    if relation == "superadditivity":
        psi = payload_to_state(payload["state"])
        if not isinstance(psi, PureState):
            raise TypeError("superadditivity argmin must embed a pure state")
        return pair_superadditivity_gap(psi, opts)[0][0]
    if relation in ("question1", "question2"):
        fa = payload_to_ensemble(payload["factor_a"])
        fb = payload_to_ensemble(payload["factor_b"])
        shape = payload["isometry"]["shape"]
        iso = pairs_to_complex(payload["isometry"]["data"]).reshape(shape)
        idx = int(payload["member"])
        for d in product_decomposition_members(fa, fb, iso):
            if d["index"] == idx:
                return float(d["gap_" + relation])
        raise ValueError(f"member {idx} has negligible weight on re-evaluation")
    raise ValueError(f"unknown relation {relation!r}")


# ---------------------------------------------------------------------------
# four-way consistency chain for products of two-qubit states

def _chain_cost(left_eof: bool, right_eof: bool) -> MemberCost:
    """S_A or E_f(AB), plus S_A' or E_f(A'B'), of members on parties (A, B, A', B')."""
    dims = (2, 2, 2, 2)
    left = (cut_member_cost(dims, (0, 1), wootters_value_grad) if left_eof
            else cut_member_cost(dims, (0,), entropy_value_grad))
    right = (cut_member_cost(dims, (2, 3), wootters_value_grad) if right_eof
             else cut_member_cost(dims, (2,), entropy_value_grad))

    def cost(raw: np.ndarray) -> tuple[float, np.ndarray]:
        left_value, left_grad = left(raw)
        right_value, right_grad = right(raw)
        return left_value + right_value, left_grad + right_grad

    return cost


def relation_chain_check(rho_a: DensityMatrix, rho_b: DensityMatrix,
                         opts: EofOptions | None = None,
                         factor_opts: EofOptions | None = None,
                         slack: float = 5e-2) -> CheckReport:
    """Four decomposition-averaged costs squeezed to E_f(rho_a) + E_f(rho_b).

    Over decompositions of the product across the pair cut, minimize the
    probability-averaged member costs
        S_A + S_A',  S_A + E_f(A'B'),  E_f(AB) + S_A',  E_f(AB) + E_f(A'B')
    (single-party entropies of the member, closed-form EoFs of its pair
    reductions).  Member-wise each cost dominates the next, and the bottom
    is squeezed from below by convexity while a product of optimal factor
    decompositions achieves the top at the factor-EoF sum - so all four
    minima equal E_f(rho_a) + E_f(rho_b).  Agreement within slack is a
    sharp end-to-end consistency test of the decomposition search.
    """
    if rho_a.dims != (2, 2) or rho_b.dims != (2, 2):
        raise ShapeError("chain check needs two-qubit factors")
    if factor_opts is None:
        factor_opts = EofOptions(restarts=6, ensemble_size=4, seed=2)
    if opts is None:
        opts = EofOptions(restarts=4, seed=6)
    ef_a = eof_wootters_2q(rho_a)
    ef_b = eof_wootters_2q(rho_b)
    reference = ef_a + ef_b
    est_a = eof_minimize(rho_a, (0,), factor_opts)
    est_b = eof_minimize(rho_b, (0,), factor_opts)
    warm = [product_ensemble(est_a.best_ensemble, est_b.best_ensemble)]
    tau = tensor(rho_a, rho_b)
    parts = []
    worst = 0.0
    for label, left_eof, right_eof in (
        ("entropy+entropy", False, False),
        ("entropy+eof", False, True),
        ("eof+entropy", True, False),
        ("eof+eof", True, True),
    ):
        est = minimize_over_decompositions(tau, (0, 2), opts,
                                           member_cost=_chain_cost(left_eof, right_eof),
                                           warm_starts=warm)
        resid = est.value - reference
        worst = max(worst, abs(resid))
        parts.append({"part": label, "value": float(est.value),
                      "residual": float(resid)})
    return CheckReport(
        name="relation-chain", semantics="consistency", samples=len(parts),
        seed=opts.seed, tol=slack, slack=None, min_gap=None,
        max_abs_residual=float(worst), passed=worst <= slack,
        per_sample=tuple(parts),
        extra={"reference": float(reference), "eof_a": float(ef_a),
               "eof_b": float(ef_b),
               "factor_estimates": [float(est_a.value), float(est_b.value)]},
    )
