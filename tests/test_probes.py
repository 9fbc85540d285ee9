"""Verification checks and counterexample probes: reports, oracles, determinism."""

import csv
import functools
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoflab import (
    Case1Spec,
    CheckReport,
    DensityMatrix,
    Ensemble,
    EofOptions,
    eof_minimize,
    ProbeResult,
    case1_suite,
    case2_ensemble,
    check_case1,
    check_case2,
    check_flagged_identity,
    check_ssa,
    check_strong_concavity,
    check_weak_additivity,
    classical_spec,
    eigen_ensemble,
    eof_wootters_2q,
    mix,
    pair_superadditivity_gap,
    probe_question1,
    probe_question2,
    product_decomposition_members,
    product_ensemble,
    random_pure,
    reevaluate_argmin,
    relation_chain_check,
    spectral_entropy,
    ssa_gap,
    superadditivity_probe,
    tensor,
    two_block_spec,
    von_neumann_entropy,
    werner_state,
    werner_two_pair,
    wootters_decomposition,
)
from eoflab.ensembles import hjw_ensemble, support_decomposition
from eoflab.qmat import ShapeError
from eoflab.eof import eof_stack, eof_wootters_stack
from eoflab.qstate import PureState, reduced_factors, reduced_operators, reduced_state
from eoflab.statezoo import random_density_dims, random_isometry, random_unitary


def entangled_pure(theta):
    v = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex)
    return PureState((2, 2), v).to_density()


def random_factor(seed):
    rng = np.random.default_rng(seed)
    return eigen_ensemble(random_density_dims((2, 2), 2, rng))


def reference_members(fa, fb, iso):
    """product_decomposition_members one member at a time: the loop reference.

    Each member is its own PureState; its entropies come from reduced_state
    and von_neumann_entropy, and its flag operators from per-flag products.
    """
    nj, nk = len(fa), len(fb)
    lj, lk = fa.weights, fb.weights
    da, db = fa.dims
    dap, dbp = fb.dims
    vec_a = np.column_stack([s.vec for s in fa.states])
    vec_b = np.column_stack([s.vec for s in fb.states])
    sig_j = [reduced_state(s, (0,)).mat for s in fa.states]
    sig_k = [reduced_state(s, (0,)).mat for s in fb.states]

    def spectrum(m):
        return np.clip(np.linalg.eigvalsh(m), 0.0, None)

    out = []
    for i, row in enumerate(iso):
        u = row.reshape(nj, nk)
        p = float((np.abs(u) ** 2 * np.outer(lj, lk)).sum())
        if p <= 1e-14:
            continue
        amp = u * np.sqrt(np.outer(lj, lk)) / math.sqrt(p)
        psi = PureState((da, db, dap, dbp), (vec_a @ amp @ vec_b.T).reshape(-1))
        s_pair = von_neumann_entropy(reduced_state(psi, (0, 2)))
        s_ap = von_neumann_entropy(reduced_state(psi, (2,)))
        right, left = [], []
        for k in range(nk):
            x = (vec_a @ (u[:, k] * np.sqrt(lj)) / math.sqrt(p)).reshape(da, db)
            right.append(x @ x.conj().T)
        for j in range(nj):
            x = (vec_b @ (u[j, :] * np.sqrt(lk)) / math.sqrt(p)).reshape(dap, dbp)
            left.append(x @ x.conj().T)
        t_right = [float(np.trace(m).real) for m in right]
        s_hat = sum(lk[k] * t * spectral_entropy(spectrum(right[k]) / t)
                    for k, t in enumerate(t_right) if t > 1e-14)
        lit = (sum(lk[k] * spectral_entropy(spectrum(m)) for k, m in enumerate(right))
               + sum(lj[j] * spectral_entropy(spectrum(m)) for j, m in enumerate(left)))
        nu = np.abs(u) ** 2 * np.outer(lj, lk) / p
        a_flag = sum(lk[k] * np.kron(right[k], sig_k[k]) for k in range(nk))
        flag_ap = sum(lj[j] * np.kron(sig_j[j], left[j]) for j in range(nj))
        flag_flag = sum(nu[j, k] * np.kron(sig_j[j], sig_k[k])
                        for j in range(nj) for k in range(nk))
        terms = [spectral_entropy(spectrum(m)) for m in (a_flag, flag_ap, flag_flag)]
        out.append({
            "index": i, "p": p, "entropy_pair": s_pair, "entropy_a_prime": s_ap,
            "gap_member": s_pair - s_hat - s_ap,
            "gap_question1": s_pair - lit,
            "gap_question2": s_pair + terms[2] - terms[0] - terms[1],
            "term_a_flag": terms[0], "term_flag_a_prime": terms[1],
            "term_flag_flag": terms[2],
            "flag_weight_sum": float(np.dot(lk, t_right)),
            "flag_weight_sum_left": float(sum(lj[j] * np.trace(m).real
                                              for j, m in enumerate(left))),
        })
    return out


@st.composite
def factor_pair(draw):
    """Two eigen-ensemble factors of dims (2,2), (2,3) or (3,2), any rank, m >= n."""
    dims = st.sampled_from([(2, 2), (2, 3), (3, 2)])
    dims_a, dims_b = draw(dims), draw(dims)
    rank_a = draw(st.integers(1, math.prod(dims_a)))
    rank_b = draw(st.integers(1, math.prod(dims_b)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fa = eigen_ensemble(random_density_dims(dims_a, rank_a, rng))
    fb = eigen_ensemble(random_density_dims(dims_b, rank_b, rng))
    n = len(fa) * len(fb)
    return fa, fb, random_isometry(n + draw(st.integers(0, 3)), n, rng)


@functools.cache
def flagged_report():
    return check_flagged_identity(samples=20, seed=0)


@functools.cache
def concavity_report():
    return check_strong_concavity(samples=25, seed=0)


@functools.cache
def ssa_report():
    return check_ssa(samples=25, seed=0)


@functools.cache
def question2_random():
    return probe_question2(trials=40, members=8, seed=0)


class TestReportSerialization:
    def test_json_deterministic(self):
        a = check_flagged_identity(samples=5, seed=3).to_json()
        b = check_flagged_identity(samples=5, seed=3).to_json()
        assert a == b

    def test_json_round_trip(self):
        rep = flagged_report()
        assert json.loads(rep.to_json()) == rep.to_dict()

    def test_csv_shape(self):
        rep = flagged_report()
        rows = list(csv.reader(io.StringIO(rep.to_csv())))
        assert rows[0] == ["name", "index", "field", "value"]
        body = rows[1:]
        summary = [r for r in body if r[1] == ""]
        per = [r for r in body if r[1] != ""]
        # every summary field except name and the per-sample list; 4 fields/sample
        assert len(summary) == 9
        assert len(per) == 4 * rep.samples
        assert all(r[0] == "flagged-identity" for r in body)

    def test_csv_strings_stay_raw(self):
        rows = list(csv.reader(io.StringIO(flagged_report().to_csv())))
        sem = next(r for r in rows if r[2] == "semantics")
        assert sem[3] == "identity"

    def test_complex_payload_rejected(self):
        rep = CheckReport(
            name="x", semantics="identity", samples=0, seed=None, tol=None,
            slack=None, min_gap=None, max_abs_residual=None, passed=True,
            extra={"z": np.array([1.0j])},
        )
        with pytest.raises(TypeError):
            rep.to_dict()

    def test_probe_result_csv_has_trials(self):
        res = superadditivity_probe(source="case1", trials=4, seed=0)
        rows = list(csv.reader(io.StringIO(res.to_csv())))
        assert sum(r[1] != "" for r in rows[1:]) == 3 * res.trials

    def test_numpy_scalars_coerced(self):
        rep = CheckReport(
            name="x", semantics="identity", samples=0, seed=None, tol=None,
            slack=None, min_gap=None, max_abs_residual=None, passed=True,
            extra={"a": np.float64(0.5), "b": np.int64(2), "c": np.bool_(True)},
        )
        assert rep.to_dict()["extra"] == {"a": 0.5, "b": 2, "c": True}


class TestEntropyChecks:
    def test_flagged_identity_passes(self):
        rep = flagged_report()
        assert rep.passed
        assert rep.max_abs_residual < 1e-10
        assert rep.semantics == "identity"

    def test_strong_concavity_passes(self):
        rep = concavity_report()
        assert rep.passed
        assert rep.min_gap >= -1e-9

    def test_strong_concavity_reports_all_five_gaps(self):
        keys = {"strong1", "strong2", "concavity", "mix-upper", "mix-pure"}
        for entry in concavity_report().per_sample:
            assert keys <= set(entry)
            assert entry["gap"] == pytest.approx(min(entry[k] for k in keys))

    def test_product_mixture_bound_is_tight(self):
        # equality cases pin the inequality's direction: constant first slot,
        # and orthogonal flags in the second slot
        from eoflab import flagged_state, shannon_entropy, von_neumann_entropy

        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(3))
        rho = random_density_dims((3,), 2, 60)
        sigmas = [random_density_dims((2,), 2, 61 + i) for i in range(3)]
        joint = DensityMatrix((3, 2), sum(
            float(w) * np.kron(rho.mat, s.mat) for w, s in zip(p, sigmas)))
        sigma_mix = DensityMatrix((2,), sum(
            float(w) * s.mat for w, s in zip(p, sigmas)))
        assert von_neumann_entropy(joint) == pytest.approx(
            von_neumann_entropy(rho) + von_neumann_entropy(sigma_mix), abs=1e-10)

        rhos = [random_density_dims((2,), 2, 70 + i) for i in range(3)]
        avg = sum(float(w) * von_neumann_entropy(r) for w, r in zip(p, rhos))
        assert von_neumann_entropy(flagged_state(p, rhos)) == pytest.approx(
            avg + shannon_entropy(p), abs=1e-10)

    def test_ssa_passes(self):
        rep = ssa_report()
        assert rep.passed
        assert rep.min_gap >= -1e-9
        assert rep.extra["product_equality_residual"] <= 1e-9

    def test_ssa_gap_needs_three_parties(self):
        with pytest.raises(ShapeError):
            ssa_gap(random_density_dims((2, 2), 2, 0))
        with pytest.raises(ShapeError):
            check_ssa(samples=1, dims=(2, 2))

    def test_ssa_gap_tight_on_products(self):
        front = random_density_dims((2, 3), 3, 1)
        back = random_density_dims((2,), 2, 2)
        prod = DensityMatrix((2, 3, 2), np.kron(front.mat, back.mat))
        assert ssa_gap(prod) == pytest.approx(0.0, abs=1e-10)

    def test_ssa_gap_positive_on_generic_state(self):
        psi = random_pure((2, 2, 2, 8), 5)
        assert ssa_gap(reduced_state(psi, (0, 1, 2))) > 1e-3


@pytest.mark.parametrize("entry, kwargs", [
    pytest.param(check_flagged_identity, {"samples": 0}, id="flagged-0"),
    pytest.param(check_flagged_identity, {"samples": -3}, id="flagged-negative"),
    pytest.param(check_strong_concavity, {"samples": 0}, id="strong-concavity"),
    pytest.param(check_ssa, {"samples": 0}, id="ssa"),
    pytest.param(case1_suite, {"samples": 0}, id="case1-suite"),
    pytest.param(functools.partial(check_case2, classical_spec([0.5, 0.5]),
                                   classical_spec([0.5, 0.5])),
                 {"decomposition_samples": 0}, id="case2"),
    pytest.param(functools.partial(check_case2, classical_spec([0.5, 0.5]),
                                   classical_spec([0.5, 0.5])),
                 {"members": 0}, id="case2-members"),
    pytest.param(check_weak_additivity, {"pairs": 0}, id="weak-additivity"),
    pytest.param(superadditivity_probe, {"trials": 0}, id="superadditivity"),
    pytest.param(probe_question1, {"trials": 0}, id="question1"),
    pytest.param(probe_question2, {"trials": 0}, id="question2"),
    pytest.param(probe_question1, {"members": -5}, id="question1-members"),
    pytest.param(probe_question2, {"members": 0}, id="question2-members"),
])
def test_count_below_one_is_rejected(entry, kwargs):
    # a check over no samples would pass vacuously and report min_gap = inf
    with pytest.raises(ValueError, match="must be >= 1"):
        entry(**kwargs)


@pytest.mark.parametrize("entry, name", [
    pytest.param(functools.partial(check_flagged_identity, samples=1), "tol", id="flagged"),
    pytest.param(functools.partial(check_strong_concavity, samples=1), "tol",
                 id="strong-concavity"),
    pytest.param(functools.partial(check_ssa, samples=1), "tol", id="ssa"),
    pytest.param(functools.partial(check_case1, Case1Spec(np.diag([0.5, 0.5]))), "tol",
                 id="case1-tol"),
    pytest.param(functools.partial(case1_suite, samples=1), "slack", id="case1-suite"),
    pytest.param(functools.partial(check_case2, classical_spec([0.5, 0.5]),
                                   classical_spec([0.5, 0.5])), "member_slack",
                 id="case2-member-slack"),
    pytest.param(functools.partial(check_weak_additivity, pairs=1), "slack",
                 id="weak-additivity"),
    pytest.param(functools.partial(relation_chain_check, werner_state(2, -0.85),
                                   werner_state(2, -0.85)), "slack", id="relation-chain"),
    pytest.param(functools.partial(superadditivity_probe, trials=1), "slack",
                 id="superadditivity"),
    pytest.param(functools.partial(probe_question1, trials=1), "slack", id="question1"),
])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_bad_tolerance_is_rejected(entry, name, value):
    # a negative tolerance fails a relation that holds, an infinite one passes
    # vacuously, and NaN would reach the report as non-standard JSON
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
        entry(**{name: value})


class TestCase1Check:
    def test_double_bell_is_exact(self):
        rep = check_case1(Case1Spec(np.full((2, 2), 0.25)))
        assert rep.passed
        assert rep.extra["entropy_pair"] == pytest.approx(2.0, abs=1e-10)
        assert rep.extra["eof_ab"] == pytest.approx(1.0, abs=1e-10)
        assert rep.extra["eof_a_prime_b_prime"] == pytest.approx(1.0, abs=1e-10)
        assert rep.extra["closed_form"] == [True, True]
        # every identity and gap vanishes: the bound is saturated here
        assert all(abs(p["value"]) < 1e-9 for p in rep.per_sample)

    def test_diagonal_weights_have_zero_eof(self):
        rep = check_case1(Case1Spec(np.diag([0.5, 0.5])))
        assert rep.passed
        assert rep.extra["eof_ab"] == pytest.approx(0.0, abs=1e-10)
        assert rep.extra["eof_a_prime_b_prime"] == pytest.approx(0.0, abs=1e-10)
        surplus = {p["part"]: p["value"] for p in rep.per_sample}
        assert surplus["eof-superadditivity"] == pytest.approx(1.0, abs=1e-9)

    def test_random_rectangular_weights(self):
        rng = np.random.default_rng(8)
        spec = Case1Spec(rng.dirichlet(np.ones(6)).reshape(2, 3))
        rep = check_case1(spec, opts=EofOptions(restarts=4, seed=11))
        assert rep.passed
        assert rep.max_abs_residual <= 1e-9
        assert rep.min_gap >= -1e-3
        assert rep.extra["closed_form"] == [True, False]

    def test_suite_passes_and_aggregates(self):
        rep = case1_suite(samples=4, seed=0, opts=EofOptions(restarts=3, seed=11))
        assert rep.passed
        assert rep.samples == 4
        assert rep.min_gap == pytest.approx(
            min(p["min_gap"] for p in rep.per_sample))
        assert rep.max_abs_residual == pytest.approx(
            max(p["max_abs_residual"] for p in rep.per_sample))


class TestFactorEig:
    # a factor given by a density is its eigen-ensemble
    def test_from_density_round_trip(self):
        rho = random_density_dims((2, 3), 3, 4)
        fe = eigen_ensemble(rho)
        assert len(fe) == 3
        assert np.allclose(mix(fe).mat, rho.mat, atol=1e-10)
        assert fe.weights.sum() == pytest.approx(1.0)
        vecs = np.stack([s.vec for s in fe.states], axis=1)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-12)
        # and it is accepted as a factor of a product decomposition
        mem = product_decomposition_members(fe, fe, np.eye(9))
        assert sum(d["p"] for d in mem) == pytest.approx(1.0, abs=1e-10)


class TestProductDecompositionMembers:
    def test_probabilities_and_flag_weights(self):
        fa, fb = random_factor(11), random_factor(12)
        iso = random_isometry(8, len(fa) * len(fb), 13)
        mem = product_decomposition_members(fa, fb, iso)
        assert sum(d["p"] for d in mem) == pytest.approx(1.0, abs=1e-10)
        for d in mem:
            assert d["flag_weight_sum"] == pytest.approx(1.0, abs=1e-10)
            assert d["flag_weight_sum_left"] == pytest.approx(1.0, abs=1e-10)

    def test_identity_isometry_closed_forms(self):
        # members are then eigenvector pairs: p = w_J w_K, the flag-averaged
        # bound is tight, the literal-split gap is -log2(w_J w_K), the
        # operator comparison is an equality, and all three flagged-operator
        # entropies split into known sums
        fa, fb = random_factor(3), random_factor(4)
        sj = [reduced_state(s, (0,)).mat for s in fa.states]
        sk = [reduced_state(s, (0,)).mat for s in fb.states]

        def ent(m):
            return spectral_entropy(np.clip(np.linalg.eigvalsh(m), 0.0, None))

        mem = product_decomposition_members(fa, fb, np.eye(len(fa) * len(fb)))
        assert len(mem) == len(fa) * len(fb)
        for d in mem:
            j, k = divmod(d["index"], len(fb))
            wj, wk = fa.weights[j], fb.weights[k]
            x = fa.states[j].vec.reshape(fa.dims)
            y = fb.states[k].vec.reshape(fb.dims)
            assert d["p"] == pytest.approx(wj * wk, abs=1e-12)
            assert d["gap_member"] == pytest.approx(0.0, abs=1e-9)
            assert d["gap_question1"] == pytest.approx(-math.log2(wj * wk), abs=1e-9)
            assert d["gap_question2"] == pytest.approx(0.0, abs=1e-9)
            assert d["term_a_flag"] == pytest.approx(
                ent(x @ x.conj().T) + ent(sk[k]), abs=1e-9)
            assert d["term_flag_a_prime"] == pytest.approx(
                ent(sj[j]) + ent(y @ y.conj().T), abs=1e-9)
            assert d["term_flag_flag"] == pytest.approx(
                ent(sj[j]) + ent(sk[k]), abs=1e-9)

    def test_flagged_family_member_bound_holds(self):
        blocks = case2_ensemble(two_block_spec(0.5))
        for t in range(6):
            mem = product_decomposition_members(
                blocks, blocks, random_isometry(8, 4, [31, t]))
            for d in mem:
                assert d["gap_member"] >= -1e-9
                assert d["gap_question1"] >= -1e-9
                assert d["gap_question2"] == pytest.approx(0.0, abs=1e-9)

    def test_operator_gap_never_exceeds_literal_gap(self):
        # the operator comparison is the stronger statement member by member
        for t in range(8):
            rng = np.random.default_rng([77, t])
            fa = eigen_ensemble(random_density_dims((2, 2), 2, rng))
            fb = eigen_ensemble(random_density_dims((2, 2), 2, rng))
            iso = random_isometry(8, len(fa) * len(fb), rng)
            for d in product_decomposition_members(fa, fb, iso):
                assert d["gap_question1"] >= d["gap_question2"] - 1e-9

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=factor_pair())
    def test_stack_matches_member_loop(self, case):
        fa, fb, iso = case
        got = product_decomposition_members(fa, fb, iso)
        want = reference_members(fa, fb, iso)
        assert [d["index"] for d in got] == [d["index"] for d in want]
        for g, w in zip(got, want):
            for key in w:
                assert g[key] == pytest.approx(w[key], abs=1e-12), key

    def test_column_count_guard(self):
        fa, fb = random_factor(1), random_factor(2)
        with pytest.raises(ShapeError):
            product_decomposition_members(fa, fb, np.eye(len(fa) * len(fb) + 1))

    def test_rejects_non_orthonormal_factor(self):
        plus = PureState((2, 2), np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2))
        skew = Ensemble([0.5, 0.5], (PureState((2, 2), np.eye(4)[0]), plus))
        fb = random_factor(2)
        with pytest.raises(ValueError, match="isometry defect"):
            product_decomposition_members(skew, fb, np.eye(len(skew) * len(fb)))

    def test_rejects_non_bipartite_factor(self):
        tri = eigen_ensemble(random_density_dims((2, 2, 2), 2, 5))
        fb = random_factor(2)
        with pytest.raises(ShapeError):
            product_decomposition_members(tri, fb, np.eye(len(tri) * len(fb)))

    @pytest.mark.parametrize("weight", [0.0, -1e-13])
    def test_rejects_non_positive_weight(self, weight):
        # Ensemble accepts both weights; the amplitudes take their square root
        basis = np.eye(4)
        fa = Ensemble([1.0 - weight, weight],
                      (PureState((2, 2), basis[0]), PureState((2, 2), basis[3])))
        fb = random_factor(2)
        with pytest.raises(ValueError, match="strictly positive"):
            product_decomposition_members(fa, fb, np.eye(len(fa) * len(fb)))


class TestCase2Check:
    def test_flagged_example_pair(self):
        rep = check_case2(two_block_spec(0.5), two_block_spec(0.5),
                          opts=EofOptions(restarts=2, ensemble_size=8, seed=5),
                          decomposition_samples=5, members=8)
        assert rep.passed
        assert rep.min_gap >= -1e-9
        assert rep.extra["flag_weight_sum_error"] <= 1e-9
        assert rep.extra["block_eof"] == pytest.approx([0.5, 0.5], abs=1e-10)
        assert abs(rep.extra["additivity_residual"]) <= 2e-2

    def test_classical_pair_is_additive_at_zero(self):
        spec = classical_spec([0.5, 0.5])
        rep = check_case2(spec, spec, opts=EofOptions(restarts=2, seed=5),
                          decomposition_samples=4, members=6)
        assert rep.passed
        assert rep.extra["block_eof"] == pytest.approx([0.0, 0.0], abs=1e-9)
        assert rep.extra["product_eof"] == pytest.approx(0.0, abs=1e-6)

    def test_member_part_alone(self):
        # unequal factors: the member bound holds on every sampled member
        rep = check_case2(two_block_spec(0.3), two_block_spec(0.7),
                          opts=EofOptions(restarts=2, ensemble_size=8, seed=5),
                          decomposition_samples=4, members=6)
        assert rep.passed
        assert rep.min_gap >= -rep.extra["member_slack"]
        assert rep.extra["flag_weight_sum_error"] <= 1e-9
        assert len(rep.per_sample) == 4


def weak_additivity_pair(seed, k):
    """The k-th rank-2 two-qubit pair that check_weak_additivity draws from seed."""
    rng = np.random.default_rng([seed, k])
    return random_density_dims((2, 2), 2, rng), random_density_dims((2, 2), 2, rng)


class TestWeakAdditivity:
    def test_random_two_qubit_pairs(self):
        rep = check_weak_additivity(pairs=2, seed=0,
                                    opts=EofOptions(restarts=2, seed=21,
                                                    ensemble_size=8))
        assert rep.passed
        assert rep.min_gap >= -2e-3
        for entry in rep.per_sample:
            assert entry["eof_product"] <= entry["eof_a"] + entry["eof_b"] + 2e-3

    def test_report_matches_closed_form_terms_and_exact_warm_start(self):
        # the factor terms are closed forms, and the product search starts
        # from the product of the factors' exact optimal decompositions
        opts = EofOptions(restarts=1, ensemble_size=4, seed=21)
        per = []
        for k in range(2):
            rho_a, rho_b = weak_additivity_pair(3, k)
            ef_a, ef_b = eof_wootters_2q(rho_a), eof_wootters_2q(rho_b)
            warm = product_ensemble(wootters_decomposition(rho_a),
                                    wootters_decomposition(rho_b))
            est = eof_minimize(tensor(rho_a, rho_b), (0, 2), opts, warm_starts=[warm])
            per.append({"sample": k, "eof_a": float(ef_a), "eof_b": float(ef_b),
                        "eof_product": float(est.value),
                        "gap": float(ef_a + ef_b - est.value)})
        gaps = [entry["gap"] for entry in per]
        expected = CheckReport(
            name="weak-additivity", semantics="inequality", samples=2, seed=3,
            tol=None, slack=2e-3, min_gap=float(min(gaps)), max_abs_residual=None,
            passed=min(gaps) >= -2e-3, per_sample=tuple(per),
            extra={"max_gap": float(max(0.0, *gaps))},
        )
        rep = check_weak_additivity(pairs=2, seed=3, opts=opts)
        assert rep.to_json() == expected.to_json()

    @pytest.mark.parametrize("k", [0, 1])
    def test_cold_search_reaches_the_reference(self, k):
        # the check's search starts at the exact optimum; run it without that
        # warm start, so the search itself stays under test
        rho_a, rho_b = weak_additivity_pair(0, k)
        reference = eof_wootters_2q(rho_a) + eof_wootters_2q(rho_b)
        est = eof_minimize(tensor(rho_a, rho_b), (0, 2), EofOptions(restarts=4, seed=21))
        assert -1e-10 <= est.value - reference <= 1e-6


def _pair_eof(psi, pair):
    """The closed-form E_f of one pair reduction of a pure state, from its
    reshape: a one-row `eof_stack`."""
    return eof_stack(reduced_factors(psi.vec[None], psi.dims, pair), (2, 2))[0][0]


class TestSuperadditivityProbe:
    def test_structured_source_never_violates(self):
        res = superadditivity_probe(source="case1", trials=25, seed=0)
        assert not res.violation_found
        assert res.min_gap >= -1e-9
        assert res.extra["exact_terms"]

    def test_random_two_pair_states(self):
        res = superadditivity_probe(source="random", trials=25, seed=0)
        assert not res.violation_found
        assert res.min_gap > 0.0
        assert res.extra["exact_terms"]

    def test_collective_symmetry_members(self):
        res = superadditivity_probe(source="werner", trials=10, seed=0, phi=-1.0)
        assert not res.violation_found
        assert res.extra["phi"] == -1.0
        assert all(e["members"] >= 1 for e in res.per_trial)

    def test_argmin_reevaluates(self):
        res = superadditivity_probe(source="random", trials=10, seed=2)
        again = reevaluate_argmin(json.loads(res.to_json())["argmin"])
        assert again == pytest.approx(res.min_gap, abs=1e-9)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            superadditivity_probe(source="haar", trials=1)

    def test_four_party_guard(self):
        with pytest.raises(ShapeError):
            pair_superadditivity_gap(random_pure((2, 2, 2), 0))

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(phi=st.floats(-1.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_werner_stack_matches_each_member_alone(self, phi, seed):
        # the argmin re-evaluation contract: a member's gap from its trial's
        # stack is the gap of that member alone, and of the scalar route
        rng = np.random.default_rng(seed)
        rho = werner_two_pair(phi)
        rank = int(support_decomposition(rho)[0].size)
        members = hjw_ensemble(rho, random_isometry(
            int(rng.integers(rank, 2 * rank + 1)), rank, rng)).states
        stack = pair_superadditivity_gap(members)
        assert len(stack) == len(members)
        for psi, (gap, detail) in zip(members, stack):
            assert pair_superadditivity_gap(psi) == [(gap, detail)]
            scalar = (von_neumann_entropy(reduced_state(psi, (0, 2)))
                      - _pair_eof(psi, (0, 1)) - _pair_eof(psi, (2, 3)))
            assert gap == scalar

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gap_is_local_unitary_invariant(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_pure((2, 2, 2, 2), rng)
        local = functools.reduce(np.kron, [random_unitary(2, rng) for _ in range(4)])
        moved = PureState(psi.dims, local @ psi.vec)
        ((gap, _), (again, _)) = pair_superadditivity_gap([psi, moved])
        assert again == pytest.approx(gap, abs=1e-9)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10))
    def test_pair_terms_match_the_reduction_route(self, seed, n):
        # the gap takes its pair terms from each member's reshape and its
        # transpose; the closed form on the checked reductions agrees
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((n, 16)) + 1j * rng.standard_normal((n, 16))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        dims = (2, 2, 2, 2)
        details = [d for _, d in pair_superadditivity_gap((dims, vecs))]
        for key, cut in (("eof_ab", (0, 1)), ("eof_a_prime_b_prime", (2, 3))):
            np.testing.assert_allclose(
                [d[key] for d in details],
                eof_wootters_stack(reduced_operators(vecs, dims, cut)), rtol=0, atol=1e-12)

    def test_mixed_dims_stack_falls_back_to_search(self):
        # a (2, 3) pair has no closed form: each state gets its own search
        states = [random_pure((2, 2, 2, 3), [5, k]) for k in range(2)]
        opts = EofOptions(restarts=1, seed=1)
        stack = pair_superadditivity_gap(states, opts)
        for psi, (gap, detail) in zip(states, stack):
            assert not detail["exact_terms"]
            rho = reduced_state(psi, (2, 3))
            assert detail["eof_a_prime_b_prime"] == eof_minimize(rho, (0,), opts).value
            assert detail["eof_ab"] == _pair_eof(psi, (0, 1))

    def test_stack_needs_one_dims(self):
        with pytest.raises(ShapeError):
            pair_superadditivity_gap([random_pure((2, 2, 2, 2), 0),
                                      random_pure((2, 2, 2, 3), 0)])
        with pytest.raises(ValueError):
            pair_superadditivity_gap([])


class TestQuestionProbes:
    def test_question1_random_finds_counterexamples(self):
        res = probe_question1(trials=200, members=8, seed=0)
        # the literal flag-split strengthening fails for generic members:
        # a fixed-seed search reliably lands below zero
        assert res.violation_found
        assert res.min_gap < -1e-3
        assert reevaluate_argmin(res.argmin) == pytest.approx(res.min_gap,
                                                              abs=1e-9)

    def test_question2_random_finds_counterexamples(self):
        res = question2_random()
        assert res.violation_found
        assert res.min_gap < -1e-2
        assert res.extra["implication_failures"] == 0
        assert reevaluate_argmin(res.argmin) == pytest.approx(res.min_gap,
                                                              abs=1e-9)

    def test_question2_argmin_survives_json(self):
        res = question2_random()
        payload = json.loads(res.to_json())["argmin"]
        assert reevaluate_argmin(payload) == pytest.approx(res.min_gap, abs=1e-9)

    def test_pinned_flagged_factors_hold(self):
        spec = two_block_spec(0.5)
        r1 = probe_question1(spec, spec, trials=10, members=8, seed=0)
        r2 = probe_question2(spec, spec, trials=10, members=8, seed=0)
        assert not r1.violation_found
        assert r1.min_gap > 1e-4
        assert not r2.violation_found
        assert abs(r2.min_gap) <= 1e-8
        assert r1.extra["fixed_factors"] == [True, True]

    def test_pinned_factor_kinds(self):
        # a spec pins its block ensemble; any other kind of factor is refused
        spec = two_block_spec(0.5)
        blocks = case2_ensemble(spec)
        by_spec = probe_question1(spec, spec, trials=3, seed=0)
        assert probe_question1(blocks, blocks, trials=3, seed=0).to_json() == by_spec.to_json()
        for bad in (werner_state(2, -0.85), [0.5, 0.5]):
            with pytest.raises(TypeError):
                probe_question1(bad, trials=1)

    def test_deterministic_reports(self):
        a = probe_question1(trials=6, seed=4).to_json()
        b = probe_question1(trials=6, seed=4).to_json()
        assert a == b

    def test_trial_records_track_argmin(self):
        res = question2_random()
        best = min(e["gap"] for e in res.per_trial)
        assert res.min_gap == pytest.approx(best)
        assert res.argmin["relation"] == "question2"

    def test_reevaluate_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            reevaluate_argmin({"relation": "question3"})


CHAIN_PAIRS = pytest.mark.parametrize("pair", [
    (werner_state(2, 0.3), werner_state(2, -0.6)),
    (random_density_dims((2, 2), 2, 70), random_density_dims((2, 2), 2, 71))],
    ids=["werner", "random-rank-2"])


def _assert_chain_matches_separate_searches(pair, opts):
    """The chain's four parts, run as one lockstep, give each part's own
    search bit for bit: every restart's value, (nit, nfev) and stop reason,
    and the check's report.  Each part's own search runs the part's cost
    as `_summed_chain_cost` builds it, apart from `_CHAIN_COST`."""
    from unittest import mock

    from eoflab import probes
    from eoflab.eof import minimize_parts
    from eoflab.probes import _CHAIN_COST, _CHAIN_PARTS

    tau = tensor(*pair)
    warm = [product_ensemble(*(wootters_decomposition(rho) for rho in pair))]
    merged = minimize_parts(tau, _CHAIN_COST, range(len(_CHAIN_PARTS)), opts, warm)
    alone = [minimize_parts(tau, _summed_chain_cost(l, r), [0], opts, warm)[0]
             for _, l, r in _CHAIN_PARTS]
    for est, ref in zip(merged, alone):
        _assert_same_search(est, ref)
    report = relation_chain_check(*pair, opts=opts).to_json()
    with mock.patch.object(probes, "minimize_parts", lambda *args: alone):
        assert relation_chain_check(*pair, opts=opts).to_json() == report


def _assert_same_search(est, ref):
    """Two estimates of one search, bit for bit."""
    assert [v.hex() for v in est.restart_values] == [v.hex() for v in ref.restart_values]
    assert est.restart_runs == ref.restart_runs
    assert (est.value.hex(), est.iterations, est.converged) == (
        ref.value.hex(), ref.iterations, ref.converged)


def _summed_chain_cost(left_eof, right_eof):
    """A chain part's cost as one `cut_member_cost` per kernel, added; a
    part cost that values every part the same way."""
    from eoflab.eof import cut_member_cost, entropy_terms, wootters_terms

    dims = (2, 2, 2, 2)
    eof_cuts = [cut for cut, eof in (((0, 1), left_eof), ((2, 3), right_eof)) if eof]
    entropy_cuts = [cut for cut, eof in (((0,), left_eof), ((2,), right_eof)) if not eof]
    costs = [cut_member_cost(dims, cuts, kernel)
             for cuts, kernel in ((eof_cuts, wootters_terms), (entropy_cuts, entropy_terms))
             if cuts]

    def cost(raw, parts):
        (value, grad), *rest = (c(raw, parts) for c in costs)
        for v, g in rest:
            value, grad = value + v, grad + g
        return value, grad

    return cost


class TestRelationChain:
    @pytest.mark.parametrize("left_eof, right_eof", [
        (False, False), (False, True), (True, False), (True, True)],
        ids=["entropy+entropy", "entropy+eof", "eof+entropy", "eof+eof"])
    def test_part_cost_adds_terms_as_cut_member_cost_does(self, left_eof, right_eof):
        # a part's two sides are added in flat (member, side) order where they
        # read one kernel, else as the sum of the two kernels' sums
        from eoflab.probes import _CHAIN_COST, _CHAIN_PARTS

        part = [(l, r) for _, l, r in _CHAIN_PARTS].index((left_eof, right_eof))
        rng = np.random.default_rng(87)
        product = np.kron(np.kron([1, 0], [0.6, 0.8]), np.kron([0.8, 0.6j], [1, 0]))
        for m in (1, 4, 9, 16):
            raw = rng.standard_normal((3, 16, m, 2)) @ [1.0, 1j]
            raw[1, :, 0] = 0.5 * product            # S = E_f = 0 on both sides
            raw[2, :, -1] = 0.0                      # a member of weight 0
            got = _CHAIN_COST(raw, np.full(3, part))
            want = _summed_chain_cost(left_eof, right_eof)(raw, None)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @CHAIN_PAIRS
    @pytest.mark.parametrize("max_iterations", [1, EofOptions().max_iterations])
    def test_lockstep_parts_match_their_own_searches(self, pair, max_iterations):
        _assert_chain_matches_separate_searches(
            pair, EofOptions(restarts=4, seed=6, max_iterations=max_iterations))

    @CHAIN_PAIRS
    def test_one_listed_part_is_that_part_of_the_whole_run(self, pair):
        from eoflab.eof import minimize_parts
        from eoflab.probes import _CHAIN_COST, _CHAIN_PARTS

        tau = tensor(*pair)
        warm = [product_ensemble(*(wootters_decomposition(rho) for rho in pair))]
        opts = EofOptions(restarts=3, seed=6)
        merged = minimize_parts(tau, _CHAIN_COST, range(len(_CHAIN_PARTS)), opts, warm)
        for k, est in enumerate(merged):
            _assert_same_search(minimize_parts(tau, _CHAIN_COST, [k], opts, warm)[0], est)

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ranks=st.tuples(st.integers(2, 4), st.integers(2, 4)),
           restarts=st.integers(1, 5),
           max_iterations=st.sampled_from([1, EofOptions().max_iterations]))
    def test_lockstep_parts_match_their_own_searches_swept(self, seed, ranks, restarts,
                                                          max_iterations):
        pair = tuple(random_density_dims((2, 2), rank, [86, seed, k])
                     for k, rank in enumerate(ranks))
        _assert_chain_matches_separate_searches(
            pair, EofOptions(restarts=restarts, seed=seed, max_iterations=max_iterations))

    @CHAIN_PAIRS
    def test_parts_are_upper_bounds(self, pair):
        # every part is an ensemble average of exact member costs, so it can
        # only sit above the reference sum of the factor EoFs
        rep = relation_chain_check(*pair, opts=EofOptions(restarts=2, seed=6))
        for part in rep.per_sample:
            assert -1e-10 <= part["residual"] <= 1e-6, part

    @CHAIN_PAIRS
    def test_cold_searches_reach_the_reference(self, pair):
        # the check's searches start at the exact optimum; run the four costs
        # without that warm start, so the search itself stays under test
        from eoflab.eof import minimize_parts
        from eoflab.probes import _CHAIN_COST, _CHAIN_PARTS

        reference = sum(eof_wootters_2q(rho) for rho in pair)
        estimates = minimize_parts(tensor(*pair), _CHAIN_COST, range(len(_CHAIN_PARTS)),
                                   EofOptions(restarts=2, seed=6))
        for (label, _, _), est in zip(_CHAIN_PARTS, estimates):
            assert -1e-10 <= est.value - reference <= 1e-4, label

    def test_pure_product_factors(self):
        rep = relation_chain_check(
            entangled_pure(0.3), entangled_pure(0.8),
            opts=EofOptions(restarts=2, seed=6))
        assert rep.passed
        assert rep.max_abs_residual <= 1e-5
        ref = sum(eof_wootters_2q(entangled_pure(t)) for t in (0.3, 0.8))
        assert rep.extra["reference"] == pytest.approx(ref, abs=1e-12)
        assert {p["part"] for p in rep.per_sample} == {
            "entropy+entropy", "entropy+eof", "eof+entropy", "eof+eof"}

    def test_mixed_times_pure_factors(self):
        rep = relation_chain_check(
            werner_state(2, -0.85), entangled_pure(math.pi / 4),
            opts=EofOptions(restarts=2, seed=6))
        assert rep.passed
        assert rep.extra["reference"] == pytest.approx(
            eof_wootters_2q(werner_state(2, -0.85)) + 1.0, abs=1e-12)
        assert rep.max_abs_residual <= 1e-4

    def test_two_qubit_guard(self):
        with pytest.raises(ShapeError):
            relation_chain_check(random_density_dims((2, 3), 2, 0),
                                 random_density_dims((2, 2), 2, 1))
