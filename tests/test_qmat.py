"""Matrix helper contracts: Hermitian projection and deterministic eigensystems."""

import numpy as np
import pytest

from eoflab import qmat
from eoflab.qmat import ShapeError, SymmetryError, herm_eig


def _rng(seed):
    return np.random.default_rng(seed)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestHermEig:
    def test_diagonal_spectrum(self):
        got = herm_eig(np.diag([0.25, 0.5, 0.25]))
        np.testing.assert_allclose(got.eigenvalues, [0.5, 0.25, 0.25])

    def test_pauli_x(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = herm_eig(sx)
        np.testing.assert_allclose(got.eigenvalues, [1.0, -1.0], atol=1e-12)
        # eigenvectors reconstruct with canonical (real positive pivot) phase
        for k, ev in enumerate(got.eigenvalues):
            v = got.eigenvectors[:, k]
            np.testing.assert_allclose(sx @ v, ev * v, atol=1e-12)
            assert v[0].real > 0 and abs(v[0].imag) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction_and_order(self, seed):
        a = _random_complex(_rng(seed), (4, 4))
        h = (a + a.conj().T) / 2
        w, v = herm_eig(h)
        assert np.all(np.diff(w) <= 1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-10)
        np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-10)

    def test_deterministic(self):
        a = _random_complex(_rng(11), (5, 5))
        h = (a + a.conj().T) / 2
        first = herm_eig(h)
        second = herm_eig(h.copy())
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_density_eigenvalues_sum_to_one(self):
        rng = _rng(4)
        g = _random_complex(rng, (4, 4))
        rho = g @ g.conj().T
        rho /= rho.trace()
        w, _ = herm_eig(rho)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)
        assert w.min() > -1e-12

    def test_errors(self):
        with pytest.raises(ShapeError):
            herm_eig(np.ones((2, 3)))
        with pytest.raises(SymmetryError):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_near_hermitian_is_projected(self):
        h = np.eye(2) + 1e-12 * np.array([[0.0, 1.0], [0.0, 0.0]])
        w, _ = herm_eig(h)
        np.testing.assert_allclose(w, [1.0, 1.0])


def test_hermitianize_halves_defect():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    out = qmat.hermitianize(a)
    assert qmat.herm_defect(out) < 1e-15
    np.testing.assert_allclose(out, np.array([[1.0, 1.0], [1.0, 1.0]]))
