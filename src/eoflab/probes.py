"""Randomized counterexample searches for the relations the paper leaves open.

Each probe returns a ProbeResult whose `argmin` carries enough data to be
recomputed from scratch with `reevaluate_argmin`; every decomposition is an
`Ensemble`, and an argmin stores one in the ensemble-file layout.  A probe
run is evaluated as a stack, not one trial or one state at a time.  Each
trial still draws its raw Gaussians from its own stream, seeded by
(seed, trial); the samplers' builders then turn every trial's draws into
states and isometries in one call each, and the member kernels evaluate
every member of every trial in one pass (trials whose shapes differ go in
separate stacks).  The probes read the kernels' columns and build no
per-member rows, and question1 skips the flagged operators only question2
reads.  The pair E_f terms of a pure member come straight from its
reshape, a factor of each pair reduction, so those reductions are never
formed.  A member's values do not depend on the stack it came in, so a run gives the bytes of its
trials run one by one, and re-evaluating an argmin member alone gives the
same bits.  Runs longer than a chunk (STACK_BUDGET) are stacked chunk by
chunk, so memory does not grow with the trial count.  `relation_chain_check`,
a consistency check of the decomposition search built on custom member
costs, lives here too: its four searches run as one lockstep
(`minimize_parts`), whose objective calls make one Wootters-kernel call and
one entropy-kernel call for the points of all four.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .ensembles import (
    Ensemble,
    check_isometry,
    eigen_ensembles,
    ensemble_to_payload,
    hjw_members,
    payload_to_ensemble,
    product_ensemble,
    support_decomposition,
)
from .eof import (
    EofOptions,
    MemberCost,
    PartCost,
    entropy_terms,
    eof_stack,
    eof_wootters_2q,
    member_sums,
    minimize_parts,
    wootters_decomposition,
    wootters_terms,
)
from .qmat import ShapeError, as_cmatrix, canonical_eig
from .qstate import (
    DensityMatrix,
    PureState,
    check_state_vectors,
    complex_to_pairs,
    cut_permutation,
    density_spectra,
    pairs_to_complex,
    payload_to_state,
    reduced_factors,
    reduced_operators,
    spectral_entropy,
    state_to_payload,
    tensor,
)
from .reports import GAP_TOL, CheckReport, ProbeResult, require_count, require_tolerance
from .statezoo import (
    Case2Spec,
    case1_vectors,
    case2_ensemble,
    complex_gaussian,
    density_gaussian,
    gaussian_densities,
    haar_isometries,
    unit_vectors,
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

def _factor_stack(f) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(dims, weights, flags) of a factor, checked; an Ensemble is a stack of one."""
    if isinstance(f, Ensemble):
        dims, weights = f.dims, f.weights[None]
        flags = np.column_stack([s.vec for s in f.states])[None]
    else:
        dims, weights, flags = f
        dims, weights = tuple(dims), np.asarray(weights, dtype=float)
    if len(dims) != 2:
        raise ShapeError(f"need two-subsystem factors, got dims {dims}")
    if float(weights.min()) <= 0.0:  # Ensemble allows 0 and -1e-12
        raise ValueError("factor weights must be strictly positive")
    return dims, weights, check_isometry(flags)


_MEMBER_FIELDS = ("index", "p", "entropy_pair", "entropy_a_prime", "gap_member",
                  "gap_question1", "gap_question2", "term_a_flag", "term_flag_a_prime",
                  "term_flag_flag", "flag_weight_sum", "flag_weight_sum_left")


def product_decomposition_members(fa, fb, iso) -> list:
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

    A (T, m, n) stack of isometries evaluates T trials at once and returns
    one such list per trial.  A factor is then an Ensemble shared by every
    trial, or the trials' own factors as (dims, weights, flags): weights
    (T, r) and flags (T, prod(dims), r), flag j of trial t in column j of
    flags[t].  Every member of every trial is built and evaluated in one
    stack, with PureState's and DensityMatrix's checks on every member and
    reduction, and gets the bits it gets alone.  The rows join the columns
    of `_member_columns` and `_flagged_columns`, which the probes read.
    """
    columns, counts, flagged = _member_columns(fa, fb, iso)
    columns.update(_flagged_columns(columns["entropy_pair"], *flagged))
    rows = [dict(zip(_MEMBER_FIELDS, row))
            for row in zip(*(columns[f].tolist() for f in _MEMBER_FIELDS))]
    if np.ndim(iso) != 3:
        return rows
    ends = np.cumsum(counts).tolist()
    return [rows[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _member_columns(fa, fb, iso) -> tuple[dict, np.ndarray, tuple]:
    """(columns, counts, flagged) for product_decomposition_members' arguments.

    columns: every field outside `_flagged_columns`, as arrays over the kept
    members, trial-major; counts: each trial's kept members; flagged: what
    `_flagged_columns` takes after entropy_pair.
    """
    factor_a, factor_b = _factor_stack(fa), _factor_stack(fb)
    (dims_a, lj, vec_a), (dims_b, lk, vec_b) = factor_a, factor_b
    iso = check_isometry(iso)
    if iso.ndim > 3:
        raise ShapeError(f"need an isometry or a stack of them, got shape {iso.shape}")
    nj, nk = lj.shape[-1], lk.shape[-1]
    if iso.shape[-1] != nj * nk:
        raise ShapeError(f"isometry has {iso.shape[-1]} columns, expected {nj * nk}")
    u = iso.reshape(-1, iso.shape[-2], nj, nk)      # axes: trial, member, flag J, flag K
    if {len(lj), len(lk)} - {1, len(u)}:
        raise ShapeError(f"factor stacks of {len(lj)} and {len(lk)} for {len(u)} trials")
    da, db = dims_a
    dap, dbp = dims_b
    dims = (da, db, dap, dbp)

    # every member of every trial at once; a dropped member is evaluated with
    # p = 1 and left out of the checks and the result
    outer = lj[:, :, None] * lk[:, None, :]
    amp = u * np.sqrt(outer)[:, None]
    p = (np.abs(amp) ** 2).sum(axis=(-2, -1))
    kept = p > 1e-14
    p = np.where(kept, p, 1.0)
    root_p = np.sqrt(p)
    vecs = (vec_a[:, None] @ (amp / root_p[..., None, None])
            @ np.swapaxes(vec_b, -1, -2)[:, None]).reshape(*p.shape, -1)[kept]
    check_state_vectors(dims, vecs)
    s_pair = spectral_entropy(density_spectra(reduced_operators(vecs, dims, (0, 2))))
    s_ap = spectral_entropy(density_spectra(reduced_operators(vecs, dims, (2,))))

    # flag-resolved components: right_ops[..., K] is the A-reduction of the
    # (subnormalized) piece of psi lying over the second factor's flag K,
    # left_ops[..., J] the A'-reduction over the first factor's flag J.  Each
    # piece is a mat-vec product divided by sqrt(p) after the product: a
    # matrix-matrix product, or dividing first, moves fields in the last bits
    right = np.ascontiguousarray(np.swapaxes(u * np.sqrt(lj)[:, None, :, None], -1, -2))
    x = vec_a[:, None, None] @ right[..., None] / root_p[..., None, None, None]
    x = x.reshape(*p.shape, nk, da, db)
    right_ops = x @ np.swapaxes(x.conj(), -1, -2)
    x = vec_b[:, None, None] @ (u * np.sqrt(lk)[:, None, None])[..., None]
    x = (x / root_p[..., None, None, None]).reshape(*p.shape, nj, dap, dbp)
    left_ops = x @ np.swapaxes(x.conj(), -1, -2)
    t_right = np.einsum("...kaa->...k", right_ops).real
    t_left = np.einsum("...jaa->...j", left_ops).real
    w_right = lk[:, None] * t_right
    w_left = lj[:, None] * t_left
    # one eigen-solve per stack serves the normalized and the literal sums
    vals_right = np.clip(np.linalg.eigvalsh(right_ops), 0.0, None)
    vals_left = np.clip(np.linalg.eigvalsh(left_ops), 0.0, None)

    live = t_right > 1e-14
    normalized = spectral_entropy(vals_right / np.where(live, t_right, 1.0)[..., None])
    s_hat = np.where(live, w_right * normalized, 0.0).sum(axis=-1)[kept]
    lit_right = (lk[:, None] * spectral_entropy(vals_right)).sum(axis=-1)[kept]
    lit_left = (lj[:, None] * spectral_entropy(vals_left)).sum(axis=-1)[kept]
    columns = {
        "index": np.nonzero(kept)[1], "p": p[kept], "entropy_pair": s_pair,
        "entropy_a_prime": s_ap, "gap_member": s_pair - s_hat - s_ap,
        "gap_question1": s_pair - lit_right - lit_left,
        "flag_weight_sum": w_right.sum(axis=-1)[kept],
        "flag_weight_sum_left": w_left.sum(axis=-1)[kept],
    }
    return columns, kept.sum(axis=-1), (factor_a, factor_b, u, p, right_ops, left_ops, kept)


def _flagged_columns(s_pair, factor_a, factor_b, u, p, right_ops, left_ops, kept) -> dict:
    """gap_question2 and its three flagged terms, over the kept members.

    Each member's three trace-one flagged operators (A / flag, flag / A',
    flag / flag) are built and eigen-solved in one stack.
    """
    (dims_a, lj, vec_a), (dims_b, lk, vec_b) = factor_a, factor_b
    da, dap = dims_a[0], dims_b[0]
    # flag reductions: the left reduction of each factor member
    xa = np.swapaxes(vec_a, -1, -2).reshape(-1, lj.shape[-1], *dims_a)
    xb = np.swapaxes(vec_b, -1, -2).reshape(-1, lk.shape[-1], *dims_b)
    sig_j = np.einsum("...nab,...ncb->...nac", xa, xa.conj())
    sig_k = np.einsum("...nab,...ncb->...nac", xb, xb.conj())
    nu = (np.abs(u) ** 2) * (lj[:, :, None] * lk[:, None, :])[:, None] / p[..., None, None]
    flagged = np.stack([
        np.einsum("...k,...mkab,...kcd->...macbd", lk, right_ops, sig_k),   # A / flag
        np.einsum("...j,...jab,...mjcd->...macbd", lj, sig_j, left_ops),    # flag / A'
        np.einsum("...mjk,...jab,...kcd->...macbd", nu, sig_j, sig_k),     # flag / flag
    ], axis=-5)[kept].reshape(-1, 3, da * dap, da * dap)
    term1, term2, term3 = spectral_entropy(np.clip(np.linalg.eigvalsh(flagged), 0.0, None)).T
    return {"gap_question2": s_pair + term3 - term1 - term2, "term_a_flag": term1,
            "term_flag_a_prime": term2, "term_flag_flag": term3}


def pair_superadditivity_gap(states, opts: EofOptions | None = None) -> list[tuple[float, dict]]:
    """S(rho_AA') - E_f(rho_AB) - E_f(rho_A'B') for a stack of four-party pure states.

    Parties are ordered (A, B, A', B').  The stack is a sequence of
    PureStates of one dims, or (dims, vecs) with the state vectors as the
    rows of an (N, D) array, which get PureState's checks here; a single
    PureState is a stack of one.  The stack is evaluated in one pass.
    S(rho_AA') comes from the checked (A, A') reductions, with one
    eigen-solve per stack.  The E_f terms need no reduction: a member
    reshaped as AB rows x A'B' columns is a factor X of rho_AB = X X^dagger,
    and its transpose one of rho_A'B', so `eof_stack` takes each pair's
    factor stack (the closed two-qubit form on the whole stack for a pair
    of dims (2, 2), with no eigen-solve; a search per state otherwise).
    Returns one (gap, detail) per state; detail's exact_terms says whether
    both EoF terms used the closed form (otherwise they are upper bounds
    and the gap a lower bound).  The probe reads the same terms as columns
    (`_pair_gap_columns`) and builds a detail only for its argmin.
    """
    gaps, terms, exact = _pair_gap_columns(states, opts)
    return [(gap, _pair_detail(terms, exact, i)) for i, gap in enumerate(gaps.tolist())]


def _pair_gap_columns(states, opts: EofOptions | None) -> tuple:
    """(gaps, (S(rho_AA'), E_f(rho_AB), E_f(rho_A'B')), exact_terms) as arrays."""
    if isinstance(states, tuple) and len(states) == 2 and isinstance(states[1], np.ndarray):
        dims, vecs = tuple(states[0]), states[1]
        states = None
    else:
        states = [states] if isinstance(states, PureState) else list(states)
        if not states:
            raise ValueError("need at least one state")
        dims = states[0].dims
    if len(dims) != 4:
        raise ShapeError(f"need four subsystems, got dims {dims}")
    if states is not None:
        if any(s.dims != dims for s in states):
            raise ShapeError(f"every state in the stack needs dims {dims}")
        vecs = np.stack([s.vec for s in states])
    elif not len(vecs):
        raise ValueError("need at least one state")
    else:
        check_state_vectors(dims, vecs)
    s_pair = spectral_entropy(density_spectra(reduced_operators(vecs, dims, (0, 2))))
    (ef_ab, exact_ab), (ef_apbp, exact_apbp) = (
        eof_stack(reduced_factors(vecs, dims, cut), [dims[i] for i in cut], opts)
        for cut in ((0, 1), (2, 3)))
    return s_pair - ef_ab - ef_apbp, (s_pair, ef_ab, ef_apbp), exact_ab and exact_apbp


def _pair_detail(terms, exact: bool, i: int) -> dict:
    """State i's detail from `_pair_gap_columns`' terms."""
    pair, ab, apbp = (float(t[i]) for t in terms)
    return {"entropy_pair": pair, "eof_ab": ab, "eof_a_prime_b_prime": apbp,
            "exact_terms": exact}


# ---------------------------------------------------------------------------
# counterexample searches

# entries a chunk of trials may stack (member vector entries, roughly): chunks
# bound the memory a run takes, whatever its number of trials
STACK_BUDGET = 2 ** 18


def _search(name: str, trials: int, seed: int, slack: float, caveat: str,
            extra: dict, trial_size: int, run: Callable) -> ProbeResult:
    """The seeded trial driver the probes share, with its argmin tracking.

    Trial t draws from its own stream, seeded by (seed, t).  The trials run
    in chunks of at most STACK_BUDGET // trial_size, trial_size being about
    the entries one trial stacks.  run(rngs) evaluates a chunk's trials as
    one stack and returns their smallest gaps as an array, their per_trial
    fields beyond trial and gap, and a callable serializing the instance
    behind trial k's gap, called only for a trial that takes the lead as
    `argmin`.  run may add running totals to `extra`.
    """
    require_count("trials", trials)
    require_tolerance("slack", slack)
    per = []
    best_gap = math.inf
    argmin: dict = {}
    step = max(1, STACK_BUDGET // max(1, trial_size))
    for lo in range(0, trials, step):
        rngs = [np.random.default_rng([seed, t]) for t in range(lo, min(trials, lo + step))]
        gaps, entries, instance = run(rngs)
        at = int(np.argmin(gaps))       # the first of equal gaps, as trials lead
        if gaps[at] < best_gap:
            best_gap = float(gaps[at])
            argmin = {"relation": name, "trial": lo + at, "gap": best_gap, **instance(at)}
        per.extend({"trial": lo + k, "gap": gap, **entry}
                   for k, (gap, entry) in enumerate(zip(gaps.tolist(), entries)))
    return ProbeResult(
        name=name, trials=trials, seed=seed, slack=float(slack),
        min_gap=float(best_gap), violation_found=best_gap < -slack,
        argmin=argmin, caveat=caveat, per_trial=tuple(per), extra=extra,
    )


def _by_shape(shapes) -> dict:
    """Trial indices grouped by shape, in order of first appearance."""
    groups: dict = {}
    for t, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(t)
    return groups


def superadditivity_probe(source: str = "random", trials: int = 100, seed: int = 0,
                          slack: float = 1e-6, phi: float = -1.0) -> ProbeResult:
    """Search for pair-entropy vs EoF-sum violations over pure four-party states.

    Sources: "random" draws Haar-like two-pair pure states, "case1" draws
    doubled-Schmidt states from Dirichlet weights (where the relation is a
    theorem), "werner" walks decomposition members of the two-pair view of
    the d = 4 collective-symmetry state at flip expectation `phi`.  Every
    member of every trial in a chunk is evaluated in one
    `pair_superadditivity_gap` pass.
    """
    if source not in ("random", "case1", "werner"):
        raise ValueError(f"unknown source {source!r}")
    dims = (2, 2, 2, 2)
    extra = {"source": source, "exact_terms": True}
    rank_w = 0
    if source == "werner":
        lam_w, vecs_w = support_decomposition(werner_two_pair(phi))
        rank_w = lam_w.size
        extra["phi"] = float(phi)

    def candidates(rngs) -> list[np.ndarray]:
        """Each trial's candidate state vectors, as the rows of an array."""
        if source == "random":
            return list(unit_vectors(np.stack([complex_gaussian(rng, 16) for rng in rngs]))[:, None])
        if source == "case1":
            w = np.stack([rng.dirichlet(np.ones(4)).reshape(2, 2) for rng in rngs])
            return list(case1_vectors(w)[:, None])
        sizes = [int(rng.integers(rank_w, 2 * rank_w + 1)) for rng in rngs]
        draws = [complex_gaussian(rng, (m, rank_w)) for rng, m in zip(rngs, sizes)]
        out = [None] * len(rngs)
        for trials_m in _by_shape(sizes).values():
            u = check_isometry(haar_isometries(np.stack([draws[t] for t in trials_m])))
            p, members = hjw_members(lam_w, vecs_w, u)
            for t, keep, psi in zip(trials_m, p > 1e-12, members):   # hjw_ensemble's ptol
                out[t] = psi[keep]
        return out

    def run(rngs):
        found = candidates(rngs)
        counts = [len(c) for c in found]
        gaps, terms, exact = _pair_gap_columns((dims, np.concatenate(found)), None)
        extra["exact_terms"] = extra["exact_terms"] and exact
        starts = np.cumsum(counts) - counts
        best = [int(np.argmin(gaps[s:s + n])) for s, n in zip(starts, counts)]
        return gaps[starts + best], [{"members": n} for n in counts], lambda k: {
            "source": source, "member": best[k],
            "state": state_to_payload(PureState(dims, found[k][best[k]])),
            "detail": _pair_detail(terms, exact, starts[k] + best[k])}

    most = 2 * rank_w if source == "werner" else 1      # candidates a trial draws
    return _search("superadditivity", trials, seed, slack, UPPER_BOUND_CAVEAT, extra,
                   16 * most, run)


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
    pinned = [None if f is None else _pinned_factor(f) for f in (factor_a, factor_b)]
    extra = {
        "members": int(members), "dims": [int(d) for d in dims], "rank": int(rank),
        "fixed_factors": [f is not None for f in pinned],
    }
    if name == "question2":     # question2 implies question1 member by member
        extra["implication_failures"] = 0
        extra["min_gap_question1"] = math.inf
    grid = tuple(extra["dims"])
    sizes = [math.prod(f.dims) if f is not None else math.prod(grid) for f in pinned]
    ranks = [len(f) if f is not None else int(rank) for f in pinned]

    def run(rngs):
        # per trial: factor A's Gaussian, then factor B's, then the isometry's
        draws = [None if f is not None else [density_gaussian(grid, rank, rng) for rng in rngs]
                 for f in pinned]
        factors = []        # per factor: its dims and every trial's (weights, flags)
        for f, g in zip(pinned, draws):
            if f is None:
                # one eigh of each draw, with DensityMatrix's checks and herm_eig's
                w, v = density_spectra(as_cmatrix(gaussian_densities(np.stack(g))),
                                       vectors=True)
                factors.append((grid, eigen_ensembles(*canonical_eig(w, v))))
            else:
                flags = np.column_stack([s.vec for s in f.states])
                factors.append((f.dims, [(f.weights, flags)] * len(rngs)))
        shapes = [tuple(len(per[t][0]) for _, per in factors) for t in range(len(rngs))]
        isos = [complex_gaussian(rng, (max(int(members), a * b), a * b))
                for rng, (a, b) in zip(rngs, shapes)]
        iso, index, gaps = ([None] * len(rngs) for _ in range(3))    # per trial
        for group in _by_shape(shapes).values():
            stacks = [(d, *(np.stack(x) for x in zip(*(per[t] for t in group))))
                      for d, per in factors]
            u = haar_isometries(np.stack([isos[t] for t in group]))
            columns, counts, flagged = _member_columns(*stacks, u)
            if name == "question2":
                q1 = columns["gap_question1"]
                columns[key] = q2 = _flagged_columns(columns["entropy_pair"], *flagged)[key]
                extra["min_gap_question1"] = min(extra["min_gap_question1"],
                                                 float(q1[np.argmin(q1)]))
                extra["implication_failures"] += int(np.count_nonzero(
                    (q2 >= -GAP_TOL) & (q1 < -GAP_TOL)))
            cuts = np.cumsum(counts)[:-1]
            for t, u_t, index_t, gaps_t in zip(group, u, np.split(columns["index"], cuts),
                                               np.split(columns[key], cuts)):
                iso[t], index[t], gaps[t] = u_t, index_t, gaps_t
        best = [int(np.argmin(g)) for g in gaps]

        def instance(k: int) -> dict:
            fa, fb = (Ensemble(per[k][0], tuple(PureState(d, e) for e in per[k][1].T))
                      for d, per in factors)
            return {"member": int(index[k][best[k]]),
                    "factor_a": ensemble_to_payload(fa), "factor_b": ensemble_to_payload(fb),
                    "isometry": {"shape": list(iso[k].shape),
                                 "data": complex_to_pairs(iso[k].reshape(-1))}}

        return (np.array([g[b] for g, b in zip(gaps, best)]),
                [{"member": int(i[b]), "members": len(i)} for i, b in zip(index, best)],
                instance)

    trial_size = max(int(members), ranks[0] * ranks[1]) * sizes[0] * sizes[1]
    return _search(name, trials, seed, slack, SEARCH_CAVEAT, extra, trial_size, run)


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
    block ensemble) to pin one.  `members` is a floor: a trial evaluates
    max(members, len(fa) * len(fb)) members (per_trial "members").
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
    expected zero).  `members` is a floor, as in probe_question1.
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

# the chain's parts, in report order: (label, whether the left side is
# E_f(AB) rather than S_A, whether the right side is E_f(A'B') rather than S_A')
_CHAIN_PARTS = (("entropy+entropy", False, False), ("entropy+eof", False, True),
                ("eof+entropy", True, False), ("eof+eof", True, True))


def _chain_part_cost() -> PartCost:
    """The four chain parts' member costs on parties (A, B, A', B') as one part cost.

    Part k of `_CHAIN_PARTS` costs a member S_A or E_f(AB) on its left side
    and S_A' or E_f(A'B') on its right.  A call makes one Wootters-kernel
    call and one entropy-kernel call, each on only the (point, side) pairs
    whose part reads it, and each point adds its terms as a search of its
    part alone would (`cut_member_cost`): a part whose two sides read one
    kernel in flat (member, side) order, a part whose sides read the two
    kernels as the sum of the two sides' sums.
    """
    dims = (2, 2, 2, 2)
    eof = np.array([[left, right] for _, left, right in _CHAIN_PARTS])      # (part, side)
    kernels = []
    for kernel, cuts, reads in ((wootters_terms, ((0, 1), (2, 3)), eof),
                                (entropy_terms, ((0,), (2,)), ~eof)):
        splits = [cut_permutation(dims, cut) for cut in cuts]
        perms = np.array([split[0] for split in splits])                   # (side, D)
        kernels.append((kernel, reads, perms, np.argsort(perms, axis=1), splits[0][1:]))

    def cost(raw: np.ndarray, parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        *lead, size, m = raw.shape
        members = np.swapaxes(raw.reshape(-1, size, m), -1, -2)            # (n, m, D)
        parts = np.reshape(parts, -1)
        n, rows = len(parts), np.arange(m)[:, None]
        grad = np.empty((n, 2, m, size), dtype=complex)
        sums = []                   # per kernel: each point's sum over both sides, and per side
        for kernel, reads, perms, back, shape in kernels:
            point, side = np.nonzero(reads[parts])
            if not point.size:
                sums.append((np.zeros(n), np.zeros((n, 2))))
                continue
            x = members[point[:, None, None], rows, perms[side][:, None]]
            t, g = kernel(x.reshape(-1, m, *shape))
            terms = np.zeros((n, 2, *t.shape[1:]))
            terms[point, side] = t
            g = g.reshape(-1, m, size)
            grad[point, side] = g[np.arange(len(point))[:, None, None], rows, back[side][:, None]]
            sums.append((member_sums(np.swapaxes(terms, 1, 2), (n,)), member_sums(terms, (n, 2))))
        (eof_both, eof_each), (entropy_both, entropy_each) = sums
        left, right = eof[parts].T
        one_kernel = np.where(left, eof_both, entropy_both)
        at, e = np.arange(n), right.astype(int)             # the E_f side, where they differ
        two_kernels = eof_each[at, e] + entropy_each[at, 1 - e]
        values = np.where(left == right, one_kernel, two_kernels)
        g = np.swapaxes(grad.sum(axis=1), -1, -2)
        return values.reshape(lead), g.reshape(*lead, size, m)

    return cost


_CHAIN_COST = _chain_part_cost()


def _chain_cost(left_eof: bool, right_eof: bool) -> MemberCost:
    """S_A or E_f(AB), plus S_A' or E_f(A'B'), of members on parties
    (A, B, A', B'): one part of the chain's four-part cost."""
    part = [(left, right) for _, left, right in _CHAIN_PARTS].index((left_eof, right_eof))
    return lambda raw: _CHAIN_COST(raw, np.full(raw.shape[:-2], part))


# the relation chain's own search options, used where it is given none
RELATION_CHAIN_SEARCH = EofOptions(restarts=4, seed=6)


def relation_chain_check(rho_a: DensityMatrix, rho_b: DensityMatrix,
                         opts: EofOptions | None = None,
                         slack: float = 5e-2) -> CheckReport:
    """Four decomposition-averaged costs squeezed to E_f(rho_a) + E_f(rho_b).

    Over decompositions of the product across the pair cut, minimize the
    probability-averaged member costs
        S_A + S_A',  S_A + E_f(A'B'),  E_f(AB) + S_A',  E_f(AB) + E_f(A'B')
    (single-party entropies of the member, closed-form EoFs of its pair
    reductions).  Member-wise each cost dominates the next, and the bottom
    is squeezed from below by convexity while a product of optimal factor
    decompositions achieves the top at the factor-EoF sum - so all four
    minima equal E_f(rho_a) + E_f(rho_b).  Every search is warm-started from
    that product, built from the factors' closed-form decompositions
    (`wootters_decomposition`).  Agreement within slack is a sharp
    end-to-end consistency test of the decomposition search.  The four
    searches run in one lockstep (`minimize_parts` on the four-part cost),
    and each gives, bit for bit, what a search of its own cost would.
    """
    if rho_a.dims != (2, 2) or rho_b.dims != (2, 2):
        raise ShapeError("chain check needs two-qubit factors")
    require_tolerance("slack", slack)
    if opts is None:
        opts = RELATION_CHAIN_SEARCH
    ef_a = eof_wootters_2q(rho_a)
    ef_b = eof_wootters_2q(rho_b)
    reference = ef_a + ef_b
    warm = [product_ensemble(wootters_decomposition(rho_a), wootters_decomposition(rho_b))]
    estimates = minimize_parts(tensor(rho_a, rho_b), _CHAIN_COST, len(_CHAIN_PARTS), opts,
                               warm)
    parts = []
    worst = 0.0
    for (label, _, _), est in zip(_CHAIN_PARTS, estimates):
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
               "eof_b": float(ef_b)},
    )
