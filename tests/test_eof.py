"""EoF estimators: exact pieces, the closed form, and the minimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoflab import (
    Case1Spec,
    DensityMatrix,
    Ensemble,
    EofOptions,
    PureState,
    case1_state,
    concurrence_2q,
    ensemble_average_entanglement,
    eof_minimize,
    eof_pure,
    eof_wootters_2q,
    hjw_ensemble,
    mix,
    partial_trace,
    product_ensemble,
    random_pure,
    spectral_entropy,
    tensor,
    von_neumann_entropy,
    werner_state,
    wootters_decomposition,
)
from eoflab.eof import (
    _DecompositionObjective,
    cut_member_cost,
    eof_stack,
    eof_wootters_stack,
    minimize_parts,
)
from eoflab.probes import _CHAIN_COST, _CHAIN_PARTS
from eoflab.qmat import ShapeError
from eoflab.qstate import NormalizationError, reduced_factors, reduced_operators, reduced_state
from eoflab.statezoo import random_density_dims, random_isometry, random_unitary

BELL = PureState((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))

# two-qubit Werner at singlet weight 0.9 (flip expectation -0.85); frozen after
# cross-checking the closed form against the decomposition minimizer
WERNER_09_EOF = 0.789354960989


def two_qubit(seed, rank=4):
    return random_density_dims((2, 2), rank, seed)


class TestEofPure:
    def test_bell(self):
        assert eof_pure(BELL, [0]) == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        psi = PureState((2, 2), np.array([1.0, 0.0, 0.0, 0.0]))
        assert eof_pure(psi, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_double_bell_across_pair_cut(self):
        psi = case1_state(Case1Spec(np.full((2, 2), 0.25)))
        assert eof_pure(psi, [0, 2]) == pytest.approx(2.0, abs=1e-10)

    def test_symmetric_under_cut_swap(self):
        psi = random_pure((2, 3, 2), 0)
        for cut, comp in ([[0], [1, 2]], [[0, 2], [1]]):
            assert eof_pure(psi, cut) == pytest.approx(eof_pure(psi, comp), abs=1e-10)

    def test_matches_marginal_entropy(self):
        from eoflab import reduced_state

        psi = random_pure((3, 4), 1)
        assert eof_pure(psi, [0]) == pytest.approx(
            von_neumann_entropy(reduced_state(psi, [0])), abs=1e-10
        )


class TestEnsembleAverage:
    def test_single_member(self):
        e = Ensemble(np.array([1.0]), (BELL,))
        assert ensemble_average_entanglement(e, [0]) == pytest.approx(1.0, abs=1e-12)

    def test_product_members_give_zero(self):
        states = (
            PureState((2, 2), np.array([1.0, 0.0, 0.0, 0.0])),
            PureState((2, 2), np.array([0.0, 0.0, 0.0, 1.0])),
        )
        e = Ensemble(np.array([0.5, 0.5]), states)
        assert ensemble_average_entanglement(e, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_eigen_ensemble_of_singlet(self):
        rho = werner_state(2, -1.0)
        e = hjw_ensemble(rho, np.eye(1))
        assert len(e) == 1
        assert ensemble_average_entanglement(e, [0]) == pytest.approx(1.0, abs=1e-9)

    def test_upper_bounds_minimized_value(self):
        rho = two_qubit(7)
        e = hjw_ensemble(rho, random_isometry(6, 4, 8))
        avg = ensemble_average_entanglement(e, [0])
        est = eof_minimize(rho, [0], EofOptions(restarts=6, ensemble_size=8, seed=9))
        assert est.value <= avg + 1e-9


class TestWootters:
    def test_bell(self):
        assert eof_wootters_2q(BELL.to_density()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert eof_wootters_2q(rho) == pytest.approx(0.0, abs=1e-12)

    def test_werner_regression(self):
        assert eof_wootters_2q(werner_state(2, -0.85)) == pytest.approx(
            WERNER_09_EOF, abs=1e-9
        )

    def test_pure_matches_schmidt_entropy(self):
        psi = random_pure((2, 2), 10)
        assert eof_wootters_2q(psi.to_density()) == pytest.approx(
            eof_pure(psi, [0]), abs=1e-9
        )

    def test_concurrence_of_skewed_pair(self):
        # |psi> = sqrt(a)|00> + sqrt(1-a)|11>: concurrence 2 sqrt(a(1-a))
        a = 0.8
        psi = PureState((2, 2), np.array([math.sqrt(a), 0, 0, math.sqrt(1 - a)]))
        assert concurrence_2q(psi.to_density()) == pytest.approx(
            2 * math.sqrt(a * (1 - a)), abs=1e-10
        )

    def test_dims_guard(self):
        with pytest.raises(ValueError):
            eof_wootters_2q(random_density_dims((3, 3), 2, 11))

    def test_kernel_matches_pure_closed_form(self):
        # |psi> = a|00> + b|01> + c|10> + d|11> has concurrence 2|ad - bc|
        from eoflab.eof import _eof_from_concurrence, concurrence_factors

        rng = np.random.default_rng(12)
        psi = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        closed = 2 * np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])
        conc = concurrence_factors(psi[:, :, None])
        np.testing.assert_allclose(conc, closed, rtol=0, atol=1e-12)
        halves = [(1 + math.sqrt(1 - c * c)) / 2 for c in closed]
        np.testing.assert_allclose(_eof_from_concurrence(conc)[0],
                                   [spectral_entropy([x, 1 - x], floor=0.0) for x in halves],
                                   rtol=0, atol=1e-12)


def _four_qubit_vectors(rng, n, products):
    """n unit vectors on (2, 2, 2, 2); the first `products` are AB x A'B' products,
    whose pair reductions are pure (rank-1 factors)."""
    vecs = rng.standard_normal((n, 16)) + 1j * rng.standard_normal((n, 16))
    for i in range(min(products, n)):
        vecs[i] = np.kron(vecs[i, :4], vecs[i, 4:8])
    return vecs / np.linalg.norm(vecs, axis=1)[:, None]


class TestEofStack:
    """eof_stack takes factors X of rho = X X^dagger, not density operators."""

    DIMS = (2, 2, 2, 2)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), products=st.integers(0, 3))
    def test_pure_reshapes_match_the_reduction_route(self, seed, n, products):
        vecs = _four_qubit_vectors(np.random.default_rng(seed), n, products)
        for cut in ((0, 1), (2, 3)):
            values, exact = eof_stack(reduced_factors(vecs, self.DIMS, cut), (2, 2))
            assert exact
            np.testing.assert_allclose(
                values, eof_wootters_stack(reduced_operators(vecs, self.DIMS, cut)),
                rtol=0, atol=1e-12)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 4))
    def test_mixed_reductions_as_side_by_side_member_factors(self, seed, n, m):
        # rho = sum_i p_i |psi_i><psi_i| on four qubits: its pair reduction has the
        # factor [sqrt(p_1) X_1, ..., sqrt(p_m) X_m], with k = 4 m columns
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(m), size=n)
        vecs = _four_qubit_vectors(rng, n * m, 1) * np.sqrt(p).reshape(-1, 1)
        for cut in ((0, 1), (2, 3)):
            x = reduced_factors(vecs, self.DIMS, cut).reshape(n, m, 4, 4)
            factors = np.concatenate(list(np.moveaxis(x, 1, 0)), axis=-1)
            mats = reduced_operators(vecs, self.DIMS, cut).reshape(n, m, 4, 4).sum(axis=1)
            values, _ = eof_stack(factors, (2, 2))
            assert factors.shape == (n, 4, 4 * m)
            np.testing.assert_allclose(values, eof_wootters_stack(mats), rtol=0, atol=1e-12)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), k=st.integers(1, 8))
    def test_each_factor_alone_gives_its_stack_bits(self, seed, n, k):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 4, k)) + 1j * rng.standard_normal((n, 4, k))
        x /= np.linalg.norm(x, axis=(1, 2))[:, None, None]
        values, _ = eof_stack(x, (2, 2))
        for i in range(n):
            assert eof_stack(x[i:i + 1], (2, 2))[0].tolist() == [values[i]]

    @pytest.mark.parametrize("shift", [2e-9, -2e-9])
    def test_refuses_factor_trace_off_one(self, shift):
        x = random_pure(self.DIMS, 4).vec.reshape(1, 4, 4)
        assert eof_stack(x * math.sqrt(1.0 + shift / 4), (2, 2))[1]
        with pytest.raises(NormalizationError):
            eof_stack(x * math.sqrt(1.0 + shift), (2, 2))

    def test_refuses_non_finite_and_misshapen_factors(self):
        x = random_pure(self.DIMS, 4).vec.reshape(1, 4, 4)
        with pytest.raises(NormalizationError):
            eof_stack(np.where(np.arange(16).reshape(1, 4, 4) == 5, np.nan, x), (2, 2))
        with pytest.raises(ShapeError):
            eof_stack(x.reshape(1, 2, 8), (2, 2))
        with pytest.raises(ShapeError):
            eof_stack(x[0], (2, 2))

    def test_search_past_two_qubits_runs_on_the_gram_matrix(self):
        psi = random_pure((2, 3, 2, 3), 6)
        opts = EofOptions(restarts=1, seed=1)
        (value,), exact = eof_stack(reduced_factors(psi.vec[None], psi.dims, (0, 1)),
                                    (2, 3), opts)
        assert not exact
        assert value == eof_minimize(reduced_state(psi, (0, 1)), (0,), opts).value


def _assert_exact_decomposition(rho):
    # an optimal decomposition: it mixes back to rho, averages to the closed
    # form, and every member carries rho's concurrence
    e = wootters_decomposition(rho)
    np.testing.assert_allclose(mix(e).mat, rho.mat, rtol=0, atol=1e-12)
    assert ensemble_average_entanglement(e, [0]) == pytest.approx(eof_wootters_2q(rho), abs=1e-12)
    conc = concurrence_2q(rho)
    members = [concurrence_2q(s.to_density()) for s in e.states]
    np.testing.assert_allclose(members, conc, rtol=0, atol=1e-10)
    return e, conc


def _bell_diagonal(weights):
    bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2.0)
    w = np.zeros(4)
    w[: len(weights)] = weights
    return DensityMatrix((2, 2), (bells.T * w) @ bells)


class TestWoottersDecomposition:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_random_states_in_local_frames(self, rank, seed):
        rho = random_density_dims((2, 2), rank, [80, seed])
        local = np.kron(random_unitary(2, [81, seed]), random_unitary(2, [82, seed]))
        framed = local @ rho.mat @ local.conj().T
        _assert_exact_decomposition(DensityMatrix((2, 2), (framed + framed.conj().T) / 2))

    @pytest.mark.parametrize("k", range(4))
    def test_bell_states(self, k):
        e, conc = _assert_exact_decomposition(_bell_diagonal([0.0] * k + [1.0]))
        assert conc == pytest.approx(1.0, abs=1e-12)
        assert len(e) == 1

    @pytest.mark.parametrize("index", range(4))
    def test_pure_product_states(self, index):
        _, conc = _assert_exact_decomposition(PureState((2, 2), np.eye(4)[index]).to_density())
        assert conc == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        _assert_exact_decomposition(DensityMatrix((2, 2), np.eye(4) / 4))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equal_weight_bell_diagonal(self, n):
        _, conc = _assert_exact_decomposition(_bell_diagonal([1.0 / n] * n))
        assert conc == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("phi", [k / 10 for k in range(-10, 11)])
    def test_werner_grid(self, phi):
        # separable from phi = 0 (the boundary) up
        _, conc = _assert_exact_decomposition(werner_state(2, phi))
        if phi >= 0:
            assert conc == pytest.approx(0.0, abs=1e-12)

    def test_dims_guard(self):
        with pytest.raises(ValueError):
            wootters_decomposition(random_density_dims((2, 3), 2, 11))

    @pytest.mark.parametrize("s", [[0.6, 0.0, 0.0, 0.0], [0.5, 0.3, 0.0, 0.0],
                                   [0.4, 0.4, 0.4, 0.0], [0.0, 0.0, 0.0, 0.0]])
    def test_takagi_with_repeated_singular_values(self, s):
        # a repeated singular value leaves the eigenvectors' basis free, so
        # the columns read off it need not be orthonormal as complex vectors
        from eoflab.eof import _takagi

        q0 = random_unitary(4, 90)
        tau = q0 @ np.diag(s) @ q0.T
        got, q = _takagi(tau)
        np.testing.assert_allclose(got, s, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(4), rtol=0, atol=1e-12)
        np.testing.assert_allclose(q @ np.diag(got) @ q.T, tau, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("s", [
        # s4 ~ 0 makes the (s3, s4) triangle flat
        [0.339269809, 0.205145829, 0.180302054, 2.1e-17],
        [0.389527094, 0.252158127, 0.178516080, 3.4e-18],
        [0.333637552, 0.329467353, 0.101046141, 0.0],
        [0.5, 0.25, 0.15, 0.1],                      # s1 = s2 + s3 + s4
        [0.3, 0.3, 0.2, 0.2],
        [0.25, 0.25, 0.25, 0.25]])
    def test_closing_phases_close_the_quadrilateral(self, s):
        from eoflab.eof import _closing_phases

        closure = np.sum(np.array(s) * np.exp(1j * _closing_phases(np.array(s))))
        assert abs(closure) <= 1e-15


class TestEofOptions:
    def test_defaults(self):
        opts = EofOptions()
        assert opts.restarts == 20
        assert opts.ensemble_size == "auto"

    def test_validation(self):
        with pytest.raises(ValueError):
            EofOptions(restarts=0)
        with pytest.raises(ValueError):
            EofOptions(ensemble_size=0)
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="convergence_tol"):
                EofOptions(convergence_tol=tol)

    def test_auto_rule(self):
        from eoflab.eof import resolve_ensemble_size

        # min(rank^2, max(16, 2 rank)): unchanged up to rank 8, 2 rank past it
        for rank, m in ((2, 4), (4, 16), (5, 16), (8, 16), (9, 18), (16, 32), (25, 50)):
            assert resolve_ensemble_size(rank, "auto") == m
        assert resolve_ensemble_size(3, 8) == 8
        with pytest.raises(ValueError):
            resolve_ensemble_size(4, 2)


class TestEofMinimize:
    def test_rank_one_equals_pure(self):
        psi = random_pure((2, 2), 20)
        est = eof_minimize(psi.to_density(), [0], EofOptions(restarts=2, seed=0))
        assert est.value == pytest.approx(eof_pure(psi, [0]), abs=1e-9)
        assert est.restarts_used == 2

    def test_werner_agreement(self):
        rho = werner_state(2, -0.85)
        est = eof_minimize(rho, [0], EofOptions(restarts=10, ensemble_size=8, seed=1))
        assert abs(est.value - WERNER_09_EOF) < 1e-3

    def test_separable_mixture_finds_zero(self):
        rho = DensityMatrix((2, 2), np.diag([0.6, 0.0, 0.0, 0.4]))
        est = eof_minimize(rho, [0], EofOptions(restarts=4, seed=2))
        assert est.value < 1e-6

    def test_never_worse_than_eigen_decomposition(self):
        rho = two_qubit(21)
        eigen = hjw_ensemble(rho, np.eye(4))
        est = eof_minimize(rho, [0], EofOptions(restarts=2, ensemble_size=6, seed=3))
        assert est.value <= ensemble_average_entanglement(eigen, [0]) + 1e-9

    def test_value_below_marginal_entropies(self):
        rho = two_qubit(22)
        est = eof_minimize(rho, [0], EofOptions(restarts=4, ensemble_size=6, seed=4))
        for keep in ([0], [1]):
            assert est.value <= von_neumann_entropy(partial_trace(rho, keep)) + 1e-6

    def test_best_ensemble_mixes_back(self):
        rho = two_qubit(23)
        est = eof_minimize(rho, [0], EofOptions(restarts=3, ensemble_size=6, seed=5))
        np.testing.assert_allclose(mix(est.best_ensemble).mat, rho.mat, atol=1e-8)
        avg = ensemble_average_entanglement(est.best_ensemble, [0])
        assert avg == pytest.approx(est.value, abs=1e-8)

    def test_deterministic(self):
        rho = two_qubit(24)
        opts = dict(restarts=3, ensemble_size=6, seed=6)
        a = eof_minimize(rho, [0], EofOptions(**opts))
        b = eof_minimize(rho, [0], EofOptions(**opts))
        assert a.value == b.value
        assert a.restart_values == b.restart_values

    def test_seed_changes_restart_trace(self):
        rho = two_qubit(25)
        a = eof_minimize(rho, [0], EofOptions(restarts=3, ensemble_size=6, seed=7))
        b = eof_minimize(rho, [0], EofOptions(restarts=3, ensemble_size=6, seed=8))
        # same best value (the problem is easy) but different random starts
        assert a.restart_values != b.restart_values or a.value == pytest.approx(b.value)

    def test_warm_start_soundness(self):
        rho = two_qubit(26)
        e = hjw_ensemble(rho, random_isometry(6, 4, 27))
        est = eof_minimize(
            rho, [0], EofOptions(restarts=1, ensemble_size=6, seed=9), warm_starts=[e]
        )
        assert est.value <= ensemble_average_entanglement(e, [0]) + 1e-9

    def test_local_unitary_invariance(self):
        rho = two_qubit(28)
        u = np.kron(random_unitary(2, 29), random_unitary(2, 30))
        rotated = DensityMatrix((2, 2), u @ rho.mat @ u.conj().T)
        opts = EofOptions(restarts=8, ensemble_size=8, seed=10)
        a = eof_minimize(rho, [0], opts)
        b = eof_minimize(rotated, [0], opts)
        assert abs(a.value - b.value) < 2e-3

    def test_pure_state_limit(self):
        psi = random_pure((2, 2), 31)
        rho_mixed = two_qubit(32)
        target = eof_pure(psi, [0])
        # endpoint: exactly the pure value
        end = eof_minimize(psi.to_density(), [0], EofOptions(restarts=2, seed=11))
        assert end.value == pytest.approx(target, abs=1e-9)
        # near the endpoint the estimate tracks the oracle closely
        t = 0.999
        near = DensityMatrix((2, 2), (1 - t) * rho_mixed.mat + t * psi.projector())
        est = eof_minimize(near, [0], EofOptions(restarts=8, ensemble_size=8, seed=12))
        assert abs(est.value - eof_wootters_2q(near)) < 1e-3

    def test_weak_additivity_single_pair(self):
        ra = two_qubit(33, rank=2)
        rb = two_qubit(34, rank=2)
        opts = EofOptions(restarts=6, ensemble_size=4, seed=13)
        ea = eof_minimize(ra, [0], opts)
        eb = eof_minimize(rb, [0], opts)
        prod = tensor(ra, rb)
        warm = product_ensemble(ea.best_ensemble, eb.best_ensemble)
        est = eof_minimize(
            prod, [0, 2], EofOptions(restarts=2, seed=14), warm_starts=[warm]
        )
        assert est.value <= ea.value + eb.value + 2e-3

    def test_nonconvergence_is_reported_not_raised(self):
        rho = two_qubit(35)
        est = eof_minimize(
            rho, [0], EofOptions(restarts=1, max_iterations=1, ensemble_size=6, seed=15)
        )
        assert isinstance(est.converged, bool)
        assert math.isfinite(est.value)


class TestGenericObjective:
    def test_custom_member_cost(self):
        rho = two_qubit(40)

        def left_entropy(raw, parts):
            # same cost as the default path, computed the slow way: restart by
            # restart and member by member, with the gradient -log2(M/p) X
            # from an eigendecomposition
            value, grad = np.zeros(raw.shape[0]), np.zeros_like(raw)
            for b in range(raw.shape[0]):
                for i in range(raw.shape[2]):
                    x = raw[b, :, i].reshape(2, 2)
                    w, v = np.linalg.eigh(x @ x.conj().T)
                    p = w.sum()
                    if p <= 1e-15:
                        continue
                    keep = w / p > 1e-12
                    log_mu = np.log2(np.where(keep, w / p, 1.0))
                    value[b] -= float((w * log_mu).sum())
                    grad[b, :, i] = -((v * log_mu) @ v.conj().T @ x).reshape(-1)
            return value, grad

        opts = EofOptions(restarts=3, ensemble_size=6, seed=16)
        [generic] = minimize_parts(rho, left_entropy, [0], opts)
        default = eof_minimize(rho, [0], opts)
        assert generic.value == pytest.approx(default.value, abs=1e-6)

    def test_old_search_name_is_eof_minimize(self):
        # the one search entry point; a member cost goes to minimize_parts
        from eoflab.eof import minimize_over_decompositions

        assert minimize_over_decompositions is eof_minimize
        with pytest.raises(TypeError):
            minimize_over_decompositions(two_qubit(41), (0,), EofOptions(restarts=1),
                                         member_cost=None)


def _entropy_objective(rho, cut=(0,)):
    """The objective of eof_minimize(rho, cut): entanglement entropy across
    the cut, which values every part the same way."""
    return _DecompositionObjective(rho, cut_member_cost(rho.dims, [cut]))


def _chain_part(left_eof, right_eof):
    """The index of the relation chain's part with these two sides."""
    return [(l, r) for _, l, r in _CHAIN_PARTS].index((left_eof, right_eof))


def _scipy_restart(obj, x0, opts, part=0):
    """One restart as its own scipy.optimize.minimize call on a stack of one
    point, the way the search ran before its restarts ran in lockstep; the
    lowest value it evaluated is kept as `best`."""
    import scipy.optimize

    best = [math.inf]

    def fun_and_grad(x):
        values, grads = obj(x[None], part)
        if values[0] < best[0]:
            best[0] = float(values[0])
        return float(values[0]), grads[0]

    res = scipy.optimize.minimize(fun_and_grad, x0, jac=True, method="L-BFGS-B",
                                  options={"maxiter": opts.max_iterations,
                                           "ftol": opts.convergence_tol, "gtol": 1e-6})
    res.best = best[0]
    return res


def _difference_gradient(obj, x, part=0, h=1e-6):
    """Parameter-space central differences of the objective value at one
    part, all 2 len(x) points in one stacked call."""
    steps = h * np.eye(x.size)
    values = obj(np.concatenate([x + steps, x - steps]), np.full(2 * x.size, part))[0]
    return (values[:x.size] - values[x.size:]) / (2 * h)


def _gradient_points(m, rank, seed):
    """The eigen start Y = [1; 0], where all of S = Y^dagger Y's eigenvalues
    are equal, and a Gaussian Y."""
    from eoflab.eof import _pack

    return [_pack(np.eye(m, rank)),
            np.random.default_rng(seed).standard_normal(2 * m * rank)]


class TestObjectiveGradient:
    @pytest.mark.parametrize("dims, rank, m", [
        ((2, 2), 2, 8), ((2, 2), 3, 8), ((2, 3), 3, 9), ((2, 2), 1, 1)])
    def test_entropy_gradient_matches_differences(self, dims, rank, m):
        rho = random_density_dims(dims, rank, [50, rank, m])
        obj = _entropy_objective(rho)
        for x in _gradient_points(m, obj.rank, 51):
            value, grad = obj(x, 0)
            assert grad.shape == x.shape
            np.testing.assert_allclose(grad, _difference_gradient(obj, x), rtol=0, atol=1e-6)

    def test_entropy_gradient_on_product_pair_cut(self):
        rho = tensor(two_qubit(52, rank=2), two_qubit(53, rank=2))
        obj = _entropy_objective(rho, (0, 2))
        for x in _gradient_points(16, obj.rank, 54):
            np.testing.assert_allclose(obj(x, 0)[1], _difference_gradient(obj, x),
                                       rtol=0, atol=1e-6)

    def test_value_is_ensemble_average(self):
        rho = two_qubit(55, rank=3)
        obj = _entropy_objective(rho)
        x = np.random.default_rng(56).standard_normal(2 * 6 * obj.rank)
        e = hjw_ensemble(rho, obj.isometry(x))
        assert obj(x, 0)[0] == pytest.approx(ensemble_average_entanglement(e, [0]), abs=1e-12)

    @pytest.mark.parametrize("left_eof, right_eof", [
        (False, False), (False, True), (True, False), (True, True)],
        ids=["entropy+entropy", "entropy+eof", "eof+entropy", "eof+eof"])
    def test_custom_cost_gradient_matches_differences(self, left_eof, right_eof):
        rho = tensor(two_qubit(57, rank=2), two_qubit(58, rank=2))
        obj = _DecompositionObjective(rho, _CHAIN_COST)
        part = _chain_part(left_eof, right_eof)
        for x in _gradient_points(16, obj.rank, 59):
            np.testing.assert_allclose(obj(x, part)[1], _difference_gradient(obj, x, part),
                                       rtol=0, atol=1e-6)

    def test_eof_cost_at_concurrence_limits(self):
        from eoflab.eof import wootters_terms

        bell = BELL.vec
        product = np.kron(random_pure((2,), 63).vec, random_pure((2,), 64).vec)
        # members on (A, B, A', B'): product x product (C = 0 up to rounding on
        # both pairs) and Bell x Bell (c = 1 on both), weights 0.3 and 0.7
        raw = np.stack([math.sqrt(0.3) * np.kron(product, product),
                        math.sqrt(0.7) * np.kron(bell, bell)], axis=1)
        value, grad = _CHAIN_COST(raw, _chain_part(True, True))
        assert value == pytest.approx(0.7 * 2.0, abs=1e-12)
        assert np.isfinite(grad).all()
        np.testing.assert_allclose(grad[:, 0], 0.0, rtol=0, atol=1e-12)
        # c = 1 is the maximum of c = C/p, so only p moves each pair's p E(c):
        # its gradient is E(1) X, twice over for the two pairs
        np.testing.assert_allclose(grad[:, 1], 2 * raw[:, 1], rtol=0, atol=1e-12)

        # the maximally mixed pair clips C = s1 - 3 s1 to exactly 0
        x = np.stack([np.eye(4) / 2, bell.reshape(4, 1) @ np.ones((1, 4)) / 2])
        terms, grad = wootters_terms(x)
        np.testing.assert_allclose(terms, [0.0, 1.0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(grad[0], 0.0)
        np.testing.assert_allclose(grad[1], x[1], rtol=0, atol=1e-12)

    def test_member_cost_called_once_per_call(self):
        rho = tensor(two_qubit(60, rank=2), two_qubit(61, rank=2))
        passed = []

        def counting_cost(raw, parts):
            passed.append(raw.shape)
            return _CHAIN_COST(raw, parts)

        m = 16
        obj = _DecompositionObjective(rho, counting_cost)
        obj(np.random.default_rng(62).standard_normal((3, 2 * m * obj.rank)),
            np.full(3, _chain_part(True, True)))
        assert passed == [(3, 16, m)]


# None for entanglement entropy across the cut, else a relation chain part
CHAIN_COSTS = [None, *range(len(_CHAIN_PARTS))]
CHAIN_IDS = ["default", *(label for label, _, _ in _CHAIN_PARTS)]


def _part_cost(dims, cut, chain):
    """(cost, part) of a search: entanglement entropy across the cut for
    chain None, else part `chain` of the relation chain's cost."""
    return (cut_member_cost(dims, [cut]), 0) if chain is None else (_CHAIN_COST, chain)


def _svd_entropy_value_grad(x):
    """The SVD form of `entropy_terms`, summed: -tr M log2(M/p) with gradient
    -left diag(s log2 mu) right from X = left diag(s) right."""
    from eoflab.qstate import EIG_FLOOR

    left, s, right = np.linalg.svd(x, full_matrices=False)
    lam2 = s * s
    p = lam2.sum(axis=-1)
    p_safe = np.where(p > 1e-15, p, 1.0)
    mu = lam2 / p_safe[:, None]
    mask = (mu > EIG_FLOOR) & (p[:, None] > 1e-15)
    log_mu = np.log2(np.where(mask, mu, 1.0))
    value = float(np.where(mask, -lam2 * log_mu, 0.0).sum())
    return value, -(left * np.where(mask, s * log_mu, 0.0)[:, None, :]) @ right


class TestLiveMembers:
    """What lets the search start at its live size: zero rows of Y never move."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(chain=st.sampled_from(CHAIN_COSTS),
           ranks=st.tuples(st.integers(1, 2), st.integers(1, 2)),
           zero_rows=st.lists(st.integers(0, 12), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_zero_rows_have_zero_gradient(self, chain, ranks, zero_rows, seed):
        from eoflab.eof import _pack

        rho = tensor(two_qubit([76, seed, 0], rank=ranks[0]),
                     two_qubit([76, seed, 1], rank=ranks[1]))
        cost, part = _part_cost(rho.dims, (0, 2), chain)
        obj = _DecompositionObjective(rho, cost)
        m = obj.rank + len(zero_rows)
        rng = np.random.default_rng([77, seed])
        y = rng.standard_normal((m, obj.rank)) + 1j * rng.standard_normal((m, obj.rank))
        dead = sorted({row % m for row in zero_rows})
        y[dead] = 0.0
        grad = obj(_pack(y), part)[1].reshape(2, m, obj.rank)
        np.testing.assert_array_equal(grad[:, dead], 0.0)

    @pytest.mark.parametrize("chain", CHAIN_COSTS, ids=CHAIN_IDS)
    def test_eigen_start_without_zero_rows_takes_the_same_steps(self, chain):
        from eoflab.eof import _pack

        rho = tensor(two_qubit(78, rank=2), two_qubit(79, rank=2))
        opts = EofOptions(restarts=1)
        cost, part = _part_cost(rho.dims, (0, 2), chain)
        [est] = minimize_parts(rho, cost, [part], opts)

        obj = _DecompositionObjective(rho, cost)
        padded = _scipy_restart(obj, _pack(np.eye(16, obj.rank)), opts, part)
        [live] = est.restart_runs
        assert live.members == obj.rank
        assert (live.nit, live.nfev) == (padded.nit, padded.nfev)
        assert abs(est.restart_values[0] - padded.fun) <= 1e-12

    @pytest.mark.parametrize("cuts, kernel", [
        ([(0,), (2,)], "entropy"), ([(0, 1), (2, 3)], "wootters"),
        ([(0, 1), (2, 3)], "entropy"), ([(1,), (3,), (0,)], "entropy")],
        ids=["entropy-singles", "wootters-pairs", "entropy-pairs", "entropy-three-cuts"])
    def test_multi_cut_cost_is_the_sum_of_single_cut_costs(self, cuts, kernel):
        from eoflab.eof import entropy_terms, wootters_terms

        terms = entropy_terms if kernel == "entropy" else wootters_terms
        dims = (2, 2, 2, 2)
        raw = np.random.default_rng(80).standard_normal((16, 9, 2)) @ [1.0, 1j]
        value, grad = cut_member_cost(dims, cuts, terms)(raw, None)
        singles = [cut_member_cost(dims, [cut], terms)(raw, None) for cut in cuts]
        assert value == pytest.approx(sum(v for v, _ in singles), abs=1e-12)
        np.testing.assert_allclose(grad, sum(g for _, g in singles), rtol=0, atol=1e-12)

    def test_cuts_of_different_shapes_are_refused(self):
        with pytest.raises(ValueError, match="one block shape"):
            cut_member_cost((2, 2, 2, 2), [(0,), (0, 1)])

    @pytest.mark.parametrize("shape", [(2, 8), (8, 2), (4, 4), (3, 5), (2, 2)])
    def test_gram_entropy_matches_svd_form(self, shape):
        from eoflab.eof import entropy_terms, member_sums

        d = min(shape)
        rng = np.random.default_rng([81, *shape])
        # smallest Schmidt coefficients 1, 10^-0.5, 10^-1.5, ..., 10^-8.5 and 1e-9:
        # none sits at 1e-6, where mu meets the EIG_FLOOR cut and the two forms
        # may round to opposite sides of it
        members = []
        for k, smallest in enumerate([1.0, *10.0 ** -np.arange(0.5, 9.0), 1e-9]):
            s = np.concatenate([[1.0], rng.uniform(0.1, 1.0, d - 2), [smallest]])
            u = random_unitary(shape[0], [82, *shape, k])[:, :d]
            v = random_unitary(shape[1], [83, *shape, k])[:d]
            members.append(math.sqrt(rng.uniform(0.05, 1.0)) * (u * s / np.linalg.norm(s)) @ v)
        members.append(np.zeros(shape))                           # a member of weight 0
        members.append(np.outer(random_unitary(shape[0], 84)[:, 0],
                                random_unitary(shape[1], 85)[0]))    # a product member
        x = np.stack(members)
        terms, grad = entropy_terms(x)
        value = member_sums(terms, ())
        want_value, want_grad = _svd_entropy_value_grad(x)
        assert value == pytest.approx(want_value, abs=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-7)


def _assert_restarts_match_scipy(rho, cut, opts, chain=None, warm_starts=()):
    """Every restart of a lockstep search takes the steps of its own
    scipy.optimize.minimize call: equal (nit, nfev, success) and stop
    message, and its value bit for bit."""
    from eoflab.eof import _search_starts

    cost, part = _part_cost(rho.dims, cut, chain)
    [est] = minimize_parts(rho, cost, [part], opts, warm_starts)
    obj = _DecompositionObjective(rho, cost)
    starts = _search_starts(rho, obj.rank, opts, warm_starts)
    assert len(est.restart_runs) == len(est.restart_values) == len(starts) == est.restarts_used
    best = None
    for (kind, x0), run, value in zip(starts, est.restart_runs, est.restart_values):
        ref = _scipy_restart(obj, x0, opts, part)
        assert (run.start, run.members) == (kind, x0.size // (2 * obj.rank))
        assert (run.nit, run.nfev, run.converged) == (ref.nit, ref.nfev, ref.success)
        assert run.stop == ref.message
        assert value.hex() == ref.best.hex()
        if best is None or ref.best < best[0]:
            best = (ref.best, ref)
    assert est.value == best[0]
    assert (est.iterations, est.converged) == (best[1].nit, best[1].success)
    return est


class TestLockstep:
    """All restarts run in lockstep on scipy's L-BFGS-B steps, the same search
    as one scipy.optimize.minimize call per restart."""

    @pytest.mark.parametrize("ensemble_size", [6, "auto"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_default_cost(self, ensemble_size, warm):
        rho = two_qubit(90, rank=3)
        # warm starts of 4 and 5 members: with the eigen start (3) and the
        # random restarts, four member counts share the rounds
        warm_starts = ([hjw_ensemble(rho, random_isometry(m, 3, [91, m])) for m in (4, 5)]
                       if warm else ())
        est = _assert_restarts_match_scipy(
            rho, (0,), EofOptions(restarts=6, ensemble_size=ensemble_size, seed=92),
            warm_starts=warm_starts)
        kinds = [run.start for run in est.restart_runs]
        assert kinds == ["eigen"] + ["warm"] * (2 * warm) + ["random"] * (5 - 2 * warm)
        assert len({run.members for run in est.restart_runs}) == 2 + 2 * warm

    @pytest.mark.parametrize("chain", CHAIN_COSTS[1:], ids=CHAIN_IDS[1:])
    def test_chain_costs(self, chain):
        ra, rb = two_qubit(93, rank=2), two_qubit(94, rank=2)
        warm = [product_ensemble(wootters_decomposition(ra), wootters_decomposition(rb))]
        _assert_restarts_match_scipy(tensor(ra, rb), (0, 2), EofOptions(restarts=3, seed=95),
                                     chain, warm)

    def test_one_iteration(self):
        est = _assert_restarts_match_scipy(
            two_qubit(96), (0,), EofOptions(restarts=4, max_iterations=1, seed=97))
        assert all(run.nit == 1 for run in est.restart_runs)
        assert {run.stop for run in est.restart_runs} == {
            "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"}
        assert not est.converged

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3)]), rank=st.integers(1, 4),
           restarts=st.integers(1, 5), ensemble_size=st.sampled_from(["auto", 4, 7]),
           seed=st.integers(0, 2**32 - 1))
    def test_seed_sweep(self, dims, rank, restarts, ensemble_size, seed):
        rho = random_density_dims(dims, rank, [98, seed])
        _assert_restarts_match_scipy(
            rho, (0,), EofOptions(restarts=restarts, ensemble_size=ensemble_size, seed=seed))


class TestObjectivePolar:
    """The objective's chart: the polar factor of an m x rank complex Y."""

    @pytest.mark.parametrize("dims, rank, m", [
        ((2, 2), 2, 8), ((2, 3), 3, 9), ((2, 2, 2, 2), 4, 16)])
    def test_isometry_is_polar_factor(self, dims, rank, m):
        rho = random_density_dims(dims, rank, [70, m])
        obj = _entropy_objective(rho)
        for x in _gradient_points(m, rank, 71):
            v = obj.isometry(x)
            re, im = x.reshape(2, m, rank)
            u, _, vh = np.linalg.svd(re + 1j * im, full_matrices=False)
            np.testing.assert_allclose(v, u @ vh, rtol=0, atol=1e-12)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(rank), rtol=0, atol=1e-12)

    def test_warm_start_round_trip(self):
        from eoflab.eof import _params_for_ensemble

        rho = two_qubit(72)
        e = hjw_ensemble(rho, random_isometry(6, 4, 73))
        obj = _entropy_objective(rho)
        x = _params_for_ensemble(rho, e)
        back = hjw_ensemble(rho, obj.isometry(x))
        assert len(back) == len(e)
        np.testing.assert_allclose(back.weights, e.weights, rtol=0, atol=1e-12)
        for a, b in zip(back.states, e.states):
            np.testing.assert_allclose(a.vec, b.vec, rtol=0, atol=1e-12)
        assert obj(x, 0)[0] == pytest.approx(ensemble_average_entanglement(e, [0]), abs=1e-12)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3)]), rank=st.integers(1, 4),
           extra=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_chart_mixes_back_and_values_its_ensemble(self, dims, rank, extra, seed):
        rho = random_density_dims(dims, rank, [74, seed])
        obj = _entropy_objective(rho)
        m = rank + extra
        x = np.random.default_rng([75, seed]).standard_normal(2 * m * rank)
        e = hjw_ensemble(rho, obj.isometry(x))
        np.testing.assert_allclose(mix(e).mat, rho.mat, rtol=0, atol=1e-9)
        assert obj(x, 0)[0] == pytest.approx(ensemble_average_entanglement(e, [0]), abs=1e-10)
