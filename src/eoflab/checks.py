"""Deterministic checks of the relations the paper proves.

Each check returns a CheckReport: entropy identities and inequalities on
seeded random states, the doubled-Schmidt (case 1) and locally flagged
(case 2) additivity families, and weak additivity of E_f on random
two-qubit pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import Ensemble, flagged_state, product_ensemble
from .eof import (
    EofOptions,
    ensemble_average_entanglement,
    eof_minimize,
    eof_stack,
    eof_wootters_2q,
    wootters_decomposition,
)
from .probes import product_decomposition_members
from .qmat import ShapeError
from .qstate import (
    DensityMatrix,
    partial_trace,
    reduced_factors,
    reduced_state,
    shannon_entropy,
    tensor,
    von_neumann_entropy,
)
from .reports import GAP_TOL, CheckReport, require_count, require_tolerance
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
)


# ---------------------------------------------------------------------------
# entropy identities and inequalities

def check_flagged_identity(samples: int = 100, dims=(2, 3, 4), members=(2, 3, 4),
                           seed: int = 0, tol: float = GAP_TOL) -> CheckReport:
    """S(sum_i p_i rho_i (x) |i><i|) = H(p) + sum_i p_i S(rho_i).

    Random mixed-state families over the given dimension and flag-count
    pools; the residual must vanish to working precision every time.
    """
    require_count("samples", samples)
    require_tolerance("tol", tol)
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
    require_count("samples", samples)
    require_tolerance("tol", tol)
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
    require_count("samples", samples)
    require_tolerance("tol", tol)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise ShapeError(f"need exactly 3 subsystem dims, got {dims}")
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

def _conditionals(spec: Case1Spec, row_weights) -> Ensemble:
    kept = [(float(w), case1_conditional(spec, a))
            for a, w in enumerate(row_weights) if w > 1e-14]
    return Ensemble(np.array([w for w, _ in kept]), tuple(c for _, c in kept))


# each search check's own search options, used where it is given none
CASE1_SEARCH = EofOptions(restarts=8, seed=11)
CASE2_SEARCH = EofOptions(restarts=6, seed=5)
WEAK_ADDITIVITY_SEARCH = EofOptions(restarts=4, seed=21)


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
    require_tolerance("tol", tol)
    require_tolerance("slack", slack)
    if opts is None:
        opts = CASE1_SEARCH
    psi = case1_state(spec)
    s_aa = von_neumann_entropy(reduced_state(psi, (0, 2)))
    s_a = von_neumann_entropy(reduced_state(psi, (0,)))
    s_ap = von_neumann_entropy(reduced_state(psi, (2,)))

    # the second pair's states conditioned on the row index, and the first
    # pair's on the column index, with their weights
    ens_apbp = _conditionals(spec, spec.row_weights)
    ens_ab = _conditionals(Case1Spec(spec.weights.T), spec.col_weights)
    avg_rows = sum(w * von_neumann_entropy(reduced_state(c, (0,))) for w, c in ens_apbp)
    avg_cols = sum(w * von_neumann_entropy(reduced_state(c, (0,))) for w, c in ens_ab)
    medium = s_aa - s_a - avg_rows
    medium2 = s_aa - s_ap - avg_cols

    # the state reshaped across each pair cut is a factor of that pair's reduction
    (ef_apbp,), exact_ap = eof_stack(reduced_factors(psi.vec[None], psi.dims, (2, 3)),
                                     psi.dims[2:], opts, [ens_apbp])
    (ef_ab,), exact_ab = eof_stack(reduced_factors(psi.vec[None], psi.dims, (0, 1)),
                                   psi.dims[:2], opts, [ens_ab])

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
    require_count("samples", samples)
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
# locally flagged mixtures and weak additivity

def check_case2(spec_a: Case2Spec, spec_b: Case2Spec, opts: EofOptions | None = None,
                decomposition_samples: int = 20, members: int = 8,
                member_slack: float = 2e-3, slack: float = 2e-2,
                seed: int = 0) -> CheckReport:
    """Member bounds and EoF additivity for locally flagged mixtures.

    Part one samples random decompositions of the product state and checks
    the flag-averaged pair bound (gap_member) on every member; for this
    family the bound is an exact consequence of strong concavity, so gaps
    may only dip below zero by optimizer-free numerical noise (member_slack
    is generous).  Part two compares the searched product EoF, warm-started
    from the product of the block ensembles, against the sum of the block
    EoFs: for blocks on private local ranges E_f(sum_k w_k psi_k) =
    sum_k w_k E(psi_k), so each factor's block ensemble is exactly optimal
    and the sum is exact.
    """
    require_count("decomposition_samples", decomposition_samples)
    require_count("members", members)
    require_tolerance("member_slack", member_slack)
    require_tolerance("slack", slack)
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

    if opts is None:
        opts = CASE2_SEARCH
    ef_a = ensemble_average_entanglement(ens_a, (0,))
    ef_b = ensemble_average_entanglement(ens_b, (0,))
    est = eof_minimize(tensor(case2_factor(spec_a), case2_factor(spec_b)), (0, 2), opts,
                       warm_starts=[product_ensemble(ens_a, ens_b)])
    residual = est.value - (ef_a + ef_b)
    return CheckReport(
        name="case2", semantics="mixed", samples=decomposition_samples, seed=seed,
        tol=slack, slack=member_slack, min_gap=float(min_member),
        max_abs_residual=float(abs(residual)),
        passed=min_member >= -member_slack and weight_err <= GAP_TOL
        and abs(residual) <= slack,
        per_sample=tuple(per),
        extra={
            "member_slack": float(member_slack),
            "flag_weight_sum_error": float(weight_err),
            "block_eof": [float(ef_a), float(ef_b)],
            "product_eof": float(est.value),
            "additivity_residual": float(residual),
        },
    )


def check_weak_additivity(pairs: int = 10, seed: int = 0, slack: float = 2e-3,
                          opts: EofOptions | None = None) -> CheckReport:
    """E_f(rho1 (x) rho2) never exceeds E_f(rho1) + E_f(rho2) numerically.

    On random rank-2 two-qubit pairs, the factor terms are the closed form.
    The product of the factors' exact optimal decompositions
    (`wootters_decomposition`) is a decomposition of the product that
    achieves their sum, so the product search, warm-started from it, must
    land at or below the sum; gaps below -slack fail.  A product value
    clearly *below* the sum would be evidence against additivity itself;
    the largest such surplus is reported.
    """
    require_count("pairs", pairs)
    require_tolerance("slack", slack)
    if opts is None:
        opts = WEAK_ADDITIVITY_SEARCH
    per = []
    worst = math.inf
    surplus = 0.0
    for k in range(pairs):
        rng = np.random.default_rng([seed, k])
        rho_a = random_density_dims((2, 2), 2, rng)
        rho_b = random_density_dims((2, 2), 2, rng)
        ef_a, ef_b = eof_wootters_2q(rho_a), eof_wootters_2q(rho_b)
        warm = product_ensemble(wootters_decomposition(rho_a), wootters_decomposition(rho_b))
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
