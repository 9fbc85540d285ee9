"""State containers, partial traces, entropies, Schmidt decompositions, files."""

import json
import math

import numpy as np
import pytest

from eoflab import (
    DensityMatrix,
    NormalizationError,
    PureState,
    concurrence_2q,
    eof_wootters_2q,
    partial_trace,
    reduced_state,
    schmidt,
    shannon_entropy,
    spectral_entropy,
    tensor,
    tensor_pure,
    von_neumann_entropy,
)
from eoflab.qstate import (
    load_state,
    payload_to_state,
    save_state,
    split_cut,
    state_to_payload,
)
from eoflab.statezoo import random_density_dims, random_pure

BELL = PureState((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))


def maximally_mixed(dims):
    d = math.prod(dims)
    return DensityMatrix(tuple(dims), np.eye(d) / d)


class TestContainers:
    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix((2,), np.array([[0.5, 0.5], [0.0, 0.5]]))  # not hermitian
        with pytest.raises(NormalizationError):
            DensityMatrix((2,), np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix((2,), np.diag([1.5, -0.5]))  # negative eigenvalue
        with pytest.raises(ValueError):
            DensityMatrix((2, 2), np.eye(2) / 2)  # dims mismatch

    def test_pure_validation(self):
        with pytest.raises(NormalizationError):
            PureState((2,), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            PureState((3,), np.array([1.0, 0.0]))

    def test_immutability(self):
        rho = maximally_mixed((2,))
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 9.0

    def test_projector_round_trip(self):
        psi = random_pure((2, 3), 0)
        rho = psi.to_density()
        assert rho.dims == (2, 3)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)


class TestPartialTrace:
    def test_bell_reduction(self):
        red = reduced_state(BELL, [0])
        np.testing.assert_allclose(red.mat, np.eye(2) / 2, atol=1e-12)
        red2 = partial_trace(BELL.to_density(), [1])
        np.testing.assert_allclose(red2.mat, np.eye(2) / 2, atol=1e-12)

    def test_product_factorization(self):
        a = random_density_dims((2,), 2, 1)
        b = random_density_dims((3,), 2, 2)
        ab = tensor(a, b)
        np.testing.assert_allclose(partial_trace(ab, [0]).mat, a.mat, atol=1e-12)
        np.testing.assert_allclose(partial_trace(ab, [1]).mat, b.mat, atol=1e-12)

    def test_kept_order_preserved(self):
        rho = random_density_dims((2, 3, 2), 4, 3)
        red = partial_trace(rho, [2, 0])  # unsorted keep list
        assert red.dims == (2, 2)

    def test_sequential_matches_joint(self):
        rho = random_density_dims((2, 2, 3), 5, 4)
        joint = partial_trace(rho, [1, 2])
        seq = partial_trace(partial_trace(rho, [1, 2]), [0, 1])
        np.testing.assert_allclose(joint.mat, seq.mat, atol=1e-12)
        single = partial_trace(rho, [2])
        via = partial_trace(joint, [1])
        np.testing.assert_allclose(single.mat, via.mat, atol=1e-12)

    def test_trace_preserved(self):
        rho = random_density_dims((2, 2, 2), 6, 5)
        red = partial_trace(rho, [1])
        assert red.mat.trace().real == pytest.approx(1.0, abs=1e-10)


class TestReductionFactor:
    def test_reduced_state_keeps_its_factor(self):
        psi = random_pure((2, 3, 2), 7)
        rho = reduced_state(psi, (0, 2))
        x = psi.vec.reshape(2, 3, 2).transpose(0, 2, 1).reshape(4, 3)
        np.testing.assert_array_equal(rho.factor, x)
        np.testing.assert_allclose(rho.factor @ rho.factor.conj().T, rho.mat, atol=1e-15)
        assert partial_trace(psi.to_density(), (0, 2)).factor is None

    def test_callers_cannot_set_a_factor(self):
        # only reduced_state sets it, from a checked state vector
        rho = reduced_state(random_pure((2, 2), 3), (0,))
        with pytest.raises(TypeError):
            DensityMatrix((2,), rho.mat, factor=rho.factor)
        assert not rho.factor.flags.writeable

    def test_factor_route_matches_the_eigen_route(self):
        # eof_wootters_2q takes a reduced state's own factor, else its eigh factor
        for seed in range(20):
            rho = reduced_state(random_pure((2, 2, 2), seed), (0, 1))
            plain = DensityMatrix(rho.dims, rho.mat)
            assert plain.factor is None
            assert eof_wootters_2q(rho) == pytest.approx(eof_wootters_2q(plain), abs=1e-12)
            assert concurrence_2q(rho) == pytest.approx(concurrence_2q(plain), abs=1e-12)


class TestEntropies:
    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            rho = maximally_mixed((d,))
            assert von_neumann_entropy(rho) == pytest.approx(math.log2(d), abs=1e-12)

    def test_pure_is_zero(self):
        assert von_neumann_entropy(random_pure((4,), 2).to_density()) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_spectrum_example(self):
        rho = DensityMatrix((4,), np.diag([0.5, 0.25, 0.25, 0.0]))
        assert von_neumann_entropy(rho) == pytest.approx(1.5, abs=1e-12)

    def test_unitary_invariance(self):
        from eoflab.statezoo import random_unitary

        rho = random_density_dims((4,), 3, 7)
        u = random_unitary(4, 8)
        rotated = DensityMatrix((4,), u @ rho.mat @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )

    def test_shannon(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
        assert shannon_entropy([1.0, 0.0]) == pytest.approx(0.0)
        assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5)
        with pytest.raises(NormalizationError):
            shannon_entropy([0.5, 0.2])
        with pytest.raises(ValueError):
            shannon_entropy([1.2, -0.2])

    def test_entropy_floor_kills_dust(self):
        # eigenvalues at the clipping floor contribute nothing
        rho = DensityMatrix((2,), np.diag([1.0 - 1e-13, 1e-13]))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-11)

    def test_spectral_entropy_subnormalized(self):
        # -sum v log2 v on a half-weight spectrum: 0.5*1 + 0.5 = 1 bit
        assert spectral_entropy(np.array([0.25, 0.25])) == pytest.approx(1.0)


class TestSchmidt:
    def test_bell(self):
        dec = schmidt(BELL, [0])
        np.testing.assert_allclose(dec.coeffs, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_product_state(self):
        psi = tensor_pure(random_pure((2,), 1), random_pure((3,), 2))
        dec = schmidt(psi, [0])
        assert dec.coeffs.shape == (1,)
        assert dec.coeffs[0] == pytest.approx(1.0, abs=1e-10)

    def test_skewed_pair(self):
        psi = PureState((2, 2), np.array([math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1)]))
        dec = schmidt(psi, [0])
        np.testing.assert_allclose(dec.coeffs, [math.sqrt(0.9), math.sqrt(0.1)], atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coeffs_match_reduced_spectra(self, seed):
        # oracle: squared coefficients against both reduced eigenspectra
        psi = random_pure((3, 3), seed)
        dec = schmidt(psi, [0])
        probs = np.sort(dec.coeffs ** 2)[::-1]
        for keep in ([0], [1]):
            w = np.linalg.eigvalsh(reduced_state(psi, keep).mat)
            w = np.sort(w)[::-1][: probs.size]
            np.testing.assert_allclose(probs, w, atol=1e-10)

    def test_reconstruction_nontrivial_cut(self):
        psi = random_pure((2, 3, 2), 4)
        dec = schmidt(psi, [0, 2])  # non-contiguous left block
        rebuilt = np.zeros((4, 3), dtype=complex)
        for k, c in enumerate(dec.coeffs):
            rebuilt += c * np.outer(dec.left_vectors[:, k], dec.right_vectors[:, k])
        from eoflab.qstate import cut_permutation

        perm, dl, dr = cut_permutation(psi.dims, [0, 2])
        np.testing.assert_allclose(rebuilt, psi.vec[perm].reshape(dl, dr), atol=1e-10)

    def test_local_unitary_invariance(self):
        from eoflab.statezoo import random_unitary

        psi = random_pure((3, 2), 9)
        u = np.kron(random_unitary(3, 10), random_unitary(2, 11))
        rotated = PureState((3, 2), u @ psi.vec)
        np.testing.assert_allclose(
            schmidt(rotated, [0]).coeffs, schmidt(psi, [0]).coeffs, atol=1e-10
        )

    def test_cut_validation(self):
        with pytest.raises(ValueError):
            split_cut((2, 2), [])
        with pytest.raises(ValueError):
            split_cut((2, 2), [0, 1])  # right block empty
        with pytest.raises(ValueError):
            split_cut((2, 2), [0, 0])
        with pytest.raises(ValueError):
            split_cut((2, 2), [2])


class TestTensor:
    def test_entropy_adds(self):
        a = random_density_dims((2,), 2, 20)
        b = random_density_dims((3,), 3, 21)
        lhs = von_neumann_entropy(tensor(a, b))
        rhs = von_neumann_entropy(a) + von_neumann_entropy(b)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_mixed_example(self):
        out = tensor(maximally_mixed((2,)), maximally_mixed((2,)))
        assert von_neumann_entropy(out) == pytest.approx(2.0, abs=1e-12)
        assert out.dims == (2, 2)

    def test_pure_state_entropy_symmetric_across_cut(self):
        psi = random_pure((2, 2, 3), 22)
        for cut in ([0], [1], [0, 1], [2]):
            left = von_neumann_entropy(reduced_state(psi, cut))
            comp = [i for i in range(3) if i not in cut]
            right = von_neumann_entropy(reduced_state(psi, comp))
            assert left == pytest.approx(right, abs=1e-9)


class TestStateFiles:
    def test_round_trip_density(self, tmp_path):
        rho = random_density_dims((2, 2), 3, 30)
        path = tmp_path / "state.json"
        save_state(path, rho)
        back = load_state(path)
        assert isinstance(back, DensityMatrix)
        assert back.dims == rho.dims
        np.testing.assert_allclose(back.mat, rho.mat, atol=0)

    def test_round_trip_pure(self, tmp_path):
        psi = random_pure((2, 3), 31)
        path = tmp_path / "psi.json"
        save_state(path, psi)
        back = load_state(path)
        assert isinstance(back, PureState)
        np.testing.assert_allclose(back.vec, psi.vec, atol=0)

    def test_full_precision(self):
        rho = random_density_dims((2,), 2, 32)
        payload = json.loads(json.dumps(state_to_payload(rho)))
        back = payload_to_state(payload)
        assert np.array_equal(back.mat, rho.mat)

    def test_invalid_payloads_rejected(self):
        with pytest.raises(ValueError):
            payload_to_state({"dims": [2], "kind": "density", "data": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            payload_to_state({"dims": [2], "kind": "wat", "data": [[1.0, 0.0], [0.0, 0.0]]})
        with pytest.raises(ValueError):
            payload_to_state({"kind": "pure", "data": []})
        # a matrix that is not a state must not load
        bad = {"dims": [2], "kind": "density",
               "data": [[0.9, 0.0], [0.3, 0.0], [0.3, 0.0], [0.4, 0.0]]}
        with pytest.raises(ValueError):
            payload_to_state(bad)
