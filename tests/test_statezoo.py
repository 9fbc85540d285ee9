"""State families and samplers: structure, marginals, determinism."""

import math
from pathlib import Path

import numpy as np
import pytest

from eoflab import (
    Case1Spec,
    Case2Block,
    Case2Spec,
    ConstraintError,
    case1_state,
    case2_ensemble,
    case2_factor,
    classical_spec,
    eof_wootters_2q,
    mix,
    partial_trace,
    random_density,
    random_isometry,
    random_pure,
    random_unitary,
    reduced_state,
    tensor_pure,
    two_block_spec,
    von_neumann_entropy,
    werner_state,
    werner_two_pair,
)
from eoflab.qstate import load_state
from eoflab.statezoo import random_density_dims, swap_operator

DATA = Path(__file__).parent / "data"


class TestCase1:
    def test_uniform_2x2_is_double_bell(self):
        psi = case1_state(Case1Spec(np.full((2, 2), 0.25)))
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
        target = np.kron(bell, bell)  # (A,B) pair times (A',B') pair
        assert abs(np.vdot(target, psi.vec)) == pytest.approx(1.0, abs=1e-12)

    def test_single_entry_is_product_basis_state(self):
        w = np.zeros((2, 3))
        w[1, 2] = 1.0
        psi = case1_state(Case1Spec(w))
        idx = np.argmax(np.abs(psi.vec))
        assert abs(psi.vec[idx]) == pytest.approx(1.0)
        for cut in ([0], [1], [2], [0, 2]):
            assert von_neumann_entropy(reduced_state(psi, cut)) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_marginals_are_the_weight_margins(self):
        rng = np.random.default_rng(5)
        w = rng.dirichlet(np.ones(9)).reshape(3, 3)
        spec = Case1Spec(w)
        psi = case1_state(spec)
        np.testing.assert_allclose(
            np.diag(reduced_state(psi, [0]).mat).real, spec.row_weights, atol=1e-10
        )
        np.testing.assert_allclose(
            np.diag(reduced_state(psi, [2]).mat).real, spec.col_weights, atol=1e-10
        )
        # the pair (A, A') is classically correlated with the full weight table
        rho_aa = reduced_state(psi, [0, 2])
        np.testing.assert_allclose(np.diag(rho_aa.mat).real, w.reshape(-1), atol=1e-10)
        np.testing.assert_allclose(
            rho_aa.mat, np.diag(np.diag(rho_aa.mat)), atol=1e-10
        )

    def test_weight_validation(self):
        with pytest.raises(ConstraintError):
            Case1Spec(np.array([[0.5, 0.6]]))
        with pytest.raises(ConstraintError):
            Case1Spec(np.array([[1.5, -0.5]]))


class TestCase2:
    def test_two_block_factor_spectrum(self):
        rho = case2_factor(two_block_spec(0.5))
        assert rho.dims == (3, 3)
        w = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
        np.testing.assert_allclose(w[:2], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(w[2:], 0.0, atol=1e-12)

    def test_two_block_eigenvectors(self):
        rho = case2_factor(two_block_spec(0.3))
        # weight 0.3 on |00>, 0.7 on (|11>+|22>)/sqrt(2)
        v00 = np.zeros(9)
        v00[0] = 1.0
        bell = np.zeros(9)
        bell[4] = bell[8] = 1 / math.sqrt(2)
        assert (v00 @ rho.mat @ v00).real == pytest.approx(0.3, abs=1e-12)
        assert (bell @ rho.mat @ bell).real == pytest.approx(0.7, abs=1e-12)

    def test_case2_ensemble_keeps_block_basis(self):
        spec = two_block_spec(0.3)
        blocks = case2_ensemble(spec)
        np.testing.assert_allclose(blocks.weights, [0.3, 0.7], atol=1e-15)
        np.testing.assert_allclose(mix(blocks).mat, case2_factor(spec).mat, atol=1e-15)
        # block vectors have disjoint left supports
        left = [reduced_state(s, (0,)).mat for s in blocks.states]
        assert abs(left[0] @ left[1]).max() < 1e-12

    def test_case2_ensemble_drops_zero_weight_block(self):
        blocks = case2_ensemble(two_block_spec(0.0))
        assert len(blocks) == 1
        assert blocks.weights[0] == 1.0
        np.testing.assert_allclose(blocks.states[0].vec[[4, 8]], [1 / math.sqrt(2)] * 2)

    def test_single_block_is_pure(self):
        amp = np.array([[math.sqrt(0.8), 0.0], [0.0, math.sqrt(0.2)]])
        rho = case2_factor(Case2Spec(2, 2, (Case2Block(1.0, amp, (0, 2), (0, 2)),)))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)
        assert eof_wootters_2q(rho) == pytest.approx(
            -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2)), abs=1e-9
        )

    def test_classical_spec_is_diagonal(self):
        rho = case2_factor(classical_spec([0.5, 0.5]))
        assert rho.dims == (2, 2)
        np.testing.assert_allclose(rho.mat, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)
        assert eof_wootters_2q(rho) == pytest.approx(0.0, abs=1e-12)

    def test_overlapping_blocks_rejected(self):
        one = np.ones((1, 1), dtype=complex)
        blocks = (
            Case2Block(0.5, one, (0, 1), (0, 1)),
            Case2Block(0.5, one, (0, 1), (1, 2)),  # reuses A range 0
        )
        with pytest.raises(ConstraintError):
            Case2Spec(2, 2, blocks)

    def test_block_validation(self):
        with pytest.raises(ConstraintError):
            Case2Block(0.5, np.ones((1, 1)) * 2.0, (0, 1), (0, 1))  # not normalized
        with pytest.raises(ConstraintError):
            Case2Block(0.5, np.ones((1, 1)), (1, 1), (0, 1))  # empty range
        blocks = (Case2Block(1.0, np.ones((1, 1)), (0, 1), (3, 4)),)
        with pytest.raises(ConstraintError):
            Case2Spec(2, 2, blocks)  # range exceeds d_b


class TestWerner:
    def test_d2_singlet(self):
        rho = werner_state(2, -1.0)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
        np.testing.assert_allclose(rho.mat, np.outer(singlet, singlet), atol=1e-12)
        assert eof_wootters_2q(rho) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi", [1.0 / 3.0, 0.0, 0.5])
    def test_d2_separable_region(self, phi):
        assert eof_wootters_2q(werner_state(2, phi)) == pytest.approx(0.0, abs=1e-12)

    def test_d2_entangled_weight(self):
        # singlet weight 0.9 <-> phi = -0.85; concurrence 0.85
        from eoflab import concurrence_2q

        rho = werner_state(2, -0.85)
        assert concurrence_2q(rho) == pytest.approx(0.85, abs=1e-10)

    @pytest.mark.parametrize("d,phi", [(2, -0.7), (3, 0.4), (4, -1.0), (4, 0.2)])
    def test_flip_expectation(self, d, phi):
        rho = werner_state(d, phi)
        f = swap_operator(d)
        assert float(np.trace(rho.mat @ f).real) == pytest.approx(phi, abs=1e-10)

    def test_commutes_with_collective_unitaries(self):
        rho = werner_state(3, -0.3)
        u = random_unitary(3, 7)
        uu = np.kron(u, u)
        np.testing.assert_allclose(
            uu @ rho.mat @ uu.conj().T, rho.mat, atol=1e-9
        )

    def test_extremes_are_projectors(self):
        for d in (2, 3):
            sym = werner_state(d, 1.0)
            anti = werner_state(d, -1.0)
            f = swap_operator(d)
            # phi = 1: support in the symmetric subspace, phi = -1: antisymmetric
            np.testing.assert_allclose(f @ sym.mat, sym.mat, atol=1e-10)
            np.testing.assert_allclose(f @ anti.mat, -anti.mat, atol=1e-10)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            werner_state(2, 1.5)
        with pytest.raises(ValueError):
            werner_state(1, 0.0)

    def test_two_pair_view_permutes_back(self):
        # (a, b, a', b') order: regrouping the pair axes must recover the
        # flat d = 4 state, and the pair-cut reduction its first marginal
        two = werner_two_pair(-0.6)
        assert two.dims == (2, 2, 2, 2)
        m = two.mat.reshape([2] * 8)
        flat = m.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
        np.testing.assert_allclose(flat, werner_state(4, -0.6).mat, atol=1e-12)
        left = partial_trace(two, (0, 2))
        np.testing.assert_allclose(
            left.mat, partial_trace(werner_state(4, -0.6), (0,)).mat, atol=1e-12)


class TestSamplers:
    def test_random_density_contract(self):
        rho = random_density(4, 2, 0)
        w = np.linalg.eigvalsh(rho.mat)
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-10)
        assert (w > 1e-10).sum() == 2

    def test_rank_one_is_pure(self):
        rho = random_density(3, 1, 1)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_determinism(self):
        a = random_density(4, 3, 123)
        b = random_density(4, 3, 123)
        assert np.array_equal(a.mat, b.mat)
        assert not np.array_equal(a.mat, random_density(4, 3, 124).mat)

    def test_golden_fixture(self):
        # pins the documented PRNG (default_rng / PCG64); a generator change
        # must fail here rather than silently shifting every seeded test
        want = load_state(DATA / "random_density_d4_r2_seed7.json")
        got = random_density(4, 2, 7)
        np.testing.assert_allclose(got.mat, want.mat, atol=1e-15)

    @pytest.mark.parametrize("draw, normals", [
        (lambda seed: random_density_dims((4,), 2, seed).mat, 16),
        (lambda seed: random_density_dims((2, 3), 3, seed).mat, 36),
        (lambda seed: random_pure((2, 3), seed).vec, 12),
    ], ids=["density-4-rank-2", "density-2x3-rank-3", "pure-2x3"])
    def test_generator_seed_is_used_as_is(self, draw, normals):
        seed = 31
        first = draw(np.random.default_rng(seed))
        assert np.array_equal(first, draw(seed))
        # two draws on one Generator continue its stream: the second is the
        # one that follows the first draw's `normals` real normals
        gen = np.random.default_rng(seed)
        draw(gen)
        second = draw(gen)
        skip = np.random.default_rng(seed)
        skip.standard_normal(normals)
        assert np.array_equal(second, draw(skip))
        assert not np.array_equal(second, first)

    @pytest.mark.parametrize("rank", [0, 5])
    def test_rank_outside_grid_is_rejected(self, rank):
        with pytest.raises(ValueError, match="outside 1..4"):
            random_density_dims((2, 2), rank, 0)
        with pytest.raises(ValueError, match="outside 1..4"):
            random_density(4, rank, 0)

    def test_random_isometry_contract(self):
        u = random_isometry(6, 3, 9)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-10)
        with pytest.raises(Exception):
            random_isometry(2, 3, 9)

    def test_random_unitary_contract(self):
        u = random_unitary(4, 10)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)

    def test_random_pure_grid(self):
        psi = random_pure((2, 3), 11)
        assert psi.dims == (2, 3)
        assert np.linalg.norm(psi.vec) == pytest.approx(1.0, abs=1e-12)

    def test_tensor_pure_dims(self):
        ab = tensor_pure(random_pure((2,), 1), random_pure((2,), 2))
        assert ab.dims == (2, 2)
        rho = partial_trace(ab.to_density(), [0])
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)
