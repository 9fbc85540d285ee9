"""Randomized counterexample searches for the relations the paper leaves open.

Each probe returns a ProbeResult whose `argmin` carries enough data to be
recomputed from scratch with `reevaluate_argmin`; every decomposition is an
`Ensemble`, and an argmin stores one in the ensemble-file layout.  The
probes evaluate the members of a trial as one stack, not one state at a
time: `product_decomposition_members` and `pair_superadditivity_gap` make
one reduction per cut and one eigen-solve per stack, and a member's values
do not depend on the stack it came in, so re-evaluating an argmin member
alone gives the same bits.  `relation_chain_check`, a consistency check of
the decomposition search built on custom member costs, lives here too.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .ensembles import (
    Ensemble,
    check_isometry,
    eigen_ensemble,
    ensemble_to_payload,
    hjw_ensemble,
    payload_to_ensemble,
    product_ensemble,
    support_decomposition,
)
from .eof import (
    EofOptions,
    MemberCost,
    cut_member_cost,
    entropy_value_grad,
    eof_minimize,
    eof_stack,
    eof_wootters_2q,
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
    payload_to_state,
    reduced_operators,
    spectral_entropy,
    state_to_payload,
    tensor,
)
from .reports import GAP_TOL, CheckReport, ProbeResult, require_count
from .statezoo import (
    Case1Spec,
    Case2Spec,
    case1_state,
    case2_ensemble,
    random_density_dims,
    random_isometry,
    random_pure,
    werner_two_pair,
)

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


# ---------------------------------------------------------------------------
# member and gap kernels

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


def pair_superadditivity_gap(states: PureState | Sequence[PureState],
                             opts: EofOptions | None = None) -> list[tuple[float, dict]]:
    """S(rho_AA') - E_f(rho_AB) - E_f(rho_A'B') for a stack of four-party pure states.

    Parties are ordered (A, B, A', B'); every state in the stack has the same
    dims, and a single PureState is a stack of one.  The stack is evaluated
    in one pass: one reduction per cut, one eigen-solve per stack, and
    `eof_stack` on each pair's reductions (the closed two-qubit form on the
    whole stack for a pair of dims (2, 2), a search per state otherwise).
    Returns one (gap, detail) per state; detail's exact_terms says whether
    both EoF terms used the closed form (otherwise they are upper bounds and
    the gap a lower bound).
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
    (ef_ab, exact1), (ef_apbp, exact2) = (
        eof_stack(reduced_operators(vecs, dims, cut), [dims[i] for i in cut], opts)
        for cut in ((0, 1), (2, 3)))
    gaps = s_pair - ef_ab - ef_apbp
    return [(float(gaps[n]), {
        "entropy_pair": float(s_pair[n]), "eof_ab": float(ef_ab[n]),
        "eof_a_prime_b_prime": float(ef_apbp[n]), "exact_terms": exact1 and exact2,
    }) for n in range(len(states))]


# ---------------------------------------------------------------------------
# counterexample searches

def _search(name: str, trials: int, seed: int, slack: float, caveat: str,
            extra: dict, trial: Callable) -> ProbeResult:
    """The seeded trial loop the probes share, with its argmin tracking.

    trial(t, rng) evaluates trial t on the stream seeded by (seed, t) and
    returns its smallest gap, its per_trial fields beyond trial and gap, and
    a callable serializing the instance behind that gap, called only when it
    takes the lead as `argmin`.  A trial may add running totals to `extra`.
    """
    require_count("trials", trials)
    per = []
    best_gap = math.inf
    argmin: dict = {}
    for t in range(trials):
        gap, entry, instance = trial(t, np.random.default_rng([seed, t]))
        per.append({"trial": t, "gap": gap, **entry})
        if gap < best_gap:
            best_gap = gap
            argmin = {"relation": name, "trial": t, "gap": gap, **instance()}
    return ProbeResult(
        name=name, trials=trials, seed=seed, slack=float(slack),
        min_gap=float(best_gap), violation_found=best_gap < -slack,
        argmin=argmin, caveat=caveat, per_trial=tuple(per), extra=extra,
    )


def superadditivity_probe(source: str = "random", trials: int = 100, seed: int = 0,
                          slack: float = 1e-6, phi: float = -1.0) -> ProbeResult:
    """Search for pair-entropy vs EoF-sum violations over pure four-party states.

    Sources: "random" draws Haar-like two-pair pure states, "case1" draws
    doubled-Schmidt states from Dirichlet weights (where the relation is a
    theorem), "werner" walks decomposition members of the two-pair view of
    the d = 4 collective-symmetry state at flip expectation `phi`.
    """
    if source not in ("random", "case1", "werner"):
        raise ValueError(f"unknown source {source!r}")
    rho_w = werner_two_pair(phi) if source == "werner" else None
    rank_w = int(support_decomposition(rho_w)[0].size) if rho_w is not None else 0
    extra = {"source": source, "exact_terms": True}
    if source == "werner":
        extra["phi"] = float(phi)

    def trial(t, rng):
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
        extra["exact_terms"] = extra["exact_terms"] and all(d["exact_terms"] for d in details)
        at = int(np.argmin(gaps))
        return float(gaps[at]), {"members": len(candidates)}, lambda: {
            "source": source, "member": at,
            "state": state_to_payload(candidates[at]), "detail": details[at]}

    return _search("superadditivity", trials, seed, slack, UPPER_BOUND_CAVEAT, extra, trial)


def _pinned_factor(obj) -> Ensemble:
    if isinstance(obj, Ensemble):
        return obj
    if isinstance(obj, Case2Spec):
        return case2_ensemble(obj)
    raise TypeError(f"cannot pin a factor to a {type(obj).__name__}; "
                    "pass an Ensemble or a Case2Spec")


def _question_probe(name: str, factor_a, factor_b, trials: int, members: int,
                    seed: int, slack: float, dims, rank: int) -> ProbeResult:
    require_count("members", members)
    key = "gap_" + name
    fixed_a = None if factor_a is None else _pinned_factor(factor_a)
    fixed_b = None if factor_b is None else _pinned_factor(factor_b)
    extra = {
        "members": int(members), "dims": [int(d) for d in dims], "rank": int(rank),
        "fixed_factors": [fixed_a is not None, fixed_b is not None],
    }
    if name == "question2":     # question2 implies question1 member by member
        extra["implication_failures"] = 0
        extra["min_gap_question1"] = math.inf

    def trial(t, rng):
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
        if name == "question2":
            for d in mem:
                extra["min_gap_question1"] = min(extra["min_gap_question1"],
                                                 d["gap_question1"])
                if d["gap_question2"] >= -GAP_TOL and d["gap_question1"] < -GAP_TOL:
                    extra["implication_failures"] += 1
        return float(gaps[at]), {"member": mem[at]["index"], "members": len(mem)}, lambda: {
            "member": mem[at]["index"],
            "factor_a": ensemble_to_payload(fa), "factor_b": ensemble_to_payload(fb),
            "isometry": {"shape": [int(m), int(n)],
                         "data": complex_to_pairs(iso.reshape(-1))}}

    return _search(name, trials, seed, slack, SEARCH_CAVEAT, extra, trial)


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
    return _question_probe("question1", factor_a, factor_b, trials, members, seed,
                           slack, dims, rank)


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
    return _question_probe("question2", factor_a, factor_b, trials, members, seed,
                           slack, dims, rank)


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
