"""Decomposition machinery: the isometry map, mixing, flagged states, files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoflab import (
    DensityMatrix,
    Ensemble,
    PureState,
    ShapeError,
    eigen_ensemble,
    flagged_state,
    hjw_ensemble,
    isometry_for_ensemble,
    mix,
    product_ensemble,
    shannon_entropy,
    von_neumann_entropy,
)
from eoflab.ensembles import (
    check_isometry,
    load_ensemble,
    payload_to_ensemble,
    save_ensemble,
    support_decomposition,
)
from eoflab.statezoo import (
    random_density,
    random_density_dims,
    random_isometry,
    random_pure,
)


def ket(dims, index):
    v = np.zeros(math.prod(dims) if isinstance(dims, tuple) else dims)
    v[index] = 1.0
    return PureState(dims if isinstance(dims, tuple) else (dims,), v)


@st.composite
def state_and_isometry(draw):
    """A seeded density on 1-2 subsystems of dimension 2-3, and an m x rank isometry."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=2)))
    seed = draw(st.integers(0, 2**32 - 1))
    rho = random_density_dims(dims, draw(st.integers(1, math.prod(dims))), seed)
    rank = support_decomposition(rho)[0].size
    m = draw(st.integers(rank, rank + 4))
    return rho, random_isometry(m, rank, [seed, 1])


class TestHjwEnsemble:
    def test_identity_recovers_eigendecomposition(self):
        rho = DensityMatrix((2,), np.diag([0.75, 0.25]))
        e = hjw_ensemble(rho, np.eye(2))
        np.testing.assert_allclose(e.weights, [0.75, 0.25])
        assert abs(e.states[0].vec[0]) == pytest.approx(1.0)
        assert abs(e.states[1].vec[1]) == pytest.approx(1.0)

    def test_rotating_the_maximally_mixed_qubit(self):
        rho = DensityMatrix((2,), np.eye(2) / 2)
        c = s = 1 / math.sqrt(2)
        e = hjw_ensemble(rho, np.array([[c, -s], [s, c]]))
        np.testing.assert_allclose(e.weights, [0.5, 0.5], atol=1e-12)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        overlaps = sorted(
            max(abs(np.vdot(plus, st.vec)), abs(np.vdot(minus, st.vec)))
            for st in e.states
        )
        np.testing.assert_allclose(overlaps, [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mix_round_trip(self, seed):
        rho = random_density(4, 3, seed)
        u = random_isometry(8, 3, seed + 100)
        e = hjw_ensemble(rho, u)
        np.testing.assert_allclose(mix(e).mat, rho.mat, atol=1e-9)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=state_and_isometry())
    def test_mix_round_trip_generated(self, case):
        # every ensemble the isometry map reaches mixes back to rho, and so
        # does the eigen-ensemble it starts from
        rho, u = case
        for e in (hjw_ensemble(rho, u), eigen_ensemble(rho)):
            np.testing.assert_allclose(mix(e).mat, rho.mat, atol=1e-9)

    def test_weight_formula(self):
        # oracle: p_i = sum_j |u_ij|^2 lam_j against the actual member weights
        rho = random_density(4, 4, 9)
        lam = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
        u = random_isometry(6, 4, 10)
        e = hjw_ensemble(rho, u)
        expect = (np.abs(u) ** 2) @ lam
        np.testing.assert_allclose(e.weights, expect, atol=1e-10)

    def test_wrong_column_count(self):
        rho = random_density(4, 2, 11)
        with pytest.raises(ShapeError):
            hjw_ensemble(rho, np.eye(4))  # rank is 2, not 4

    def test_non_isometry_rejected(self):
        rho = random_density(2, 2, 12)
        with pytest.raises(ValueError):
            hjw_ensemble(rho, np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_ptol_prunes_zero_rows(self):
        rho = DensityMatrix((2,), np.diag([0.5, 0.5]))
        u = np.zeros((3, 2))
        u[1, 0] = 1.0
        u[2, 1] = 1.0
        e = hjw_ensemble(rho, u)  # first row carries no weight
        assert len(e) == 2
        np.testing.assert_allclose(e.weights, [0.5, 0.5], atol=1e-12)

    def test_more_members_than_rank(self):
        rho = random_density(3, 2, 13)
        u = random_isometry(7, 2, 14)
        e = hjw_ensemble(rho, u)
        assert len(e) == 7
        np.testing.assert_allclose(mix(e).mat, rho.mat, atol=1e-9)


class TestIsometryForEnsemble:
    @pytest.mark.parametrize("seed", [20, 21])
    def test_round_trip(self, seed):
        rho = random_density(4, 3, seed)
        e = hjw_ensemble(rho, random_isometry(6, 3, seed + 1))
        u = isometry_for_ensemble(rho, e)
        e2 = hjw_ensemble(rho, u)
        np.testing.assert_allclose(e2.weights, e.weights, atol=1e-9)
        for a, b in zip(e.states, e2.states):
            assert abs(np.vdot(a.vec, b.vec)) == pytest.approx(1.0, abs=1e-9)


class TestMix:
    def test_single_member(self):
        psi = random_pure((2, 2), 30)
        e = Ensemble(np.array([1.0]), (psi,))
        np.testing.assert_allclose(mix(e).mat, psi.projector(), atol=1e-12)

    def test_equal_mixture_of_basis(self):
        e = Ensemble(np.array([0.5, 0.5]), (ket(2, 0), ket(2, 1)))
        np.testing.assert_allclose(mix(e).mat, np.eye(2) / 2)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Ensemble(np.array([0.7, 0.7]), (ket(2, 0), ket(2, 1)))
        with pytest.raises(ShapeError):
            Ensemble(np.array([0.5, 0.5]), (ket(2, 0), ket(3, 0)))


class TestProductEnsemble:
    def test_tensor_mix(self):
        ra = random_density_dims((2,), 2, 40)
        rb = random_density_dims((2,), 2, 41)
        ea = hjw_ensemble(ra, random_isometry(3, 2, 42))
        eb = hjw_ensemble(rb, random_isometry(2, 2, 43))
        prod = product_ensemble(ea, eb)
        assert len(prod) == 6
        np.testing.assert_allclose(prod.weights.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(mix(prod).mat, np.kron(ra.mat, rb.mat), atol=1e-9)


class TestFlaggedState:
    def test_entropy_identity_example(self):
        # S = H(1/2,1/2) + (0 + 1)/2 = 1.5
        rho0 = DensityMatrix((2,), np.diag([1.0, 0.0]))
        rho1 = DensityMatrix((2,), np.eye(2) / 2)
        out = flagged_state([0.5, 0.5], [rho0, rho1])
        assert out.dims == (2, 2)
        assert von_neumann_entropy(out) == pytest.approx(1.5, abs=1e-12)

    def test_single_flag(self):
        rho = random_density_dims((2,), 2, 50)
        out = flagged_state([1.0], [rho])
        assert von_neumann_entropy(out) == pytest.approx(von_neumann_entropy(rho), abs=1e-10)

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_entropy_identity_random(self, seed):
        # oracle: evaluate H(w) + sum w S(rho_i) independently
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(k))
        states = [random_density_dims((3,), int(rng.integers(1, 4)), [seed, i]) for i in range(k)]
        lhs = von_neumann_entropy(flagged_state(w, states))
        rhs = shannon_entropy(w) + sum(
            wi * von_neumann_entropy(s) for wi, s in zip(w, states)
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            flagged_state(
                [0.5, 0.5],
                [random_density_dims((2,), 1, 0), random_density_dims((3,), 1, 1)],
            )

    def test_mixing_entropy_bounds(self):
        # general bound: S(sum w rho_i) <= H(w) + sum w S(rho_i)
        rng = np.random.default_rng(60)
        w = rng.dirichlet(np.ones(3))
        states = [random_density_dims((4,), 2, [60, i]) for i in range(3)]
        mixed = DensityMatrix((4,), sum(wi * s.mat for wi, s in zip(w, states)))
        assert von_neumann_entropy(mixed) <= shannon_entropy(w) + sum(
            wi * von_neumann_entropy(s) for wi, s in zip(w, states)
        ) + 1e-9
        # pure members: S(sum w |psi><psi|) <= H(w)
        pures = [random_pure((4,), [61, i]) for i in range(3)]
        mixed_pure = DensityMatrix((4,), sum(wi * p.projector() for wi, p in zip(w, pures)))
        assert von_neumann_entropy(mixed_pure) <= shannon_entropy(w) + 1e-9


class TestEnsembleFiles:
    def test_round_trip(self, tmp_path):
        rho = random_density(4, 2, 70)
        e = hjw_ensemble(rho, random_isometry(4, 2, 71))
        path = tmp_path / "ensemble.json"
        save_ensemble(path, e)
        back = load_ensemble(path)
        assert len(back) == len(e)
        np.testing.assert_allclose(back.weights, e.weights, atol=0)
        np.testing.assert_allclose(mix(back).mat, rho.mat, atol=1e-9)

    def test_rejects_mixed_members(self):
        rho = random_density(2, 2, 72)
        from eoflab.qstate import state_to_payload

        bad = [{"weight": 1.0, "state": state_to_payload(rho)}]
        with pytest.raises(ValueError):
            payload_to_ensemble(bad)

    def test_rejects_bad_weights(self):
        psi = random_pure((2,), 73)
        from eoflab.qstate import state_to_payload

        bad = [{"weight": 0.4, "state": state_to_payload(psi)}]
        with pytest.raises(ValueError):
            payload_to_ensemble(bad)


def test_check_isometry_accepts_tall():
    u = random_isometry(5, 3, 80)
    got = check_isometry(u)
    assert got.shape == (5, 3)
