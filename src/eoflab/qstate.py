"""Multipartite states and the entropy toolbox.

Composite systems are laid out in mixed radix with the leftmost subsystem
most significant (plain C-order reshape).  Subsystem indices are zero-based
and every bipartition is an explicit argument: `cut` always means the sorted
tuple of subsystem indices forming the left block, the complement forming
the right block.  All entropies are base-2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .qmat import (
    DEFAULT_MAX_DIM,
    ShapeError,
    SizeError,
    as_cmatrix,
)

EIG_FLOOR = 1e-12
STATE_TOL = 1e-9


class NormalizationError(ValueError):
    """Weights or amplitudes that should sum/norm to one do not."""


def check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """Subsystem dimensions as ints, each >= 1, with a total within DEFAULT_MAX_DIM."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid subsystem dimensions {dims}")
    total = math.prod(dims)
    if total > DEFAULT_MAX_DIM:
        raise SizeError(f"total dimension {total} exceeds {DEFAULT_MAX_DIM}")
    return dims


def density_spectra(mats: np.ndarray, vectors: bool = False):
    """Eigen-solve a (N, d, d) stack of density operators, with DensityMatrix's checks.

    Each operator must be Hermitian and of unit trace within 1e-9.  Its
    Hermitian part (M + M^dagger)/2 is diagonalized (eigvalsh, or eigh when
    `vectors` is true), and every eigenvalue must be >= -1e-9.  DensityMatrix
    runs these checks on a stack of one.
    """
    adj = np.swapaxes(mats.conj(), -1, -2)
    if mats.size and float(np.abs(mats - adj).max()) > STATE_TOL:
        raise ValueError("density matrix is not Hermitian within 1e-9")
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > STATE_TOL
    if off.any():
        raise NormalizationError(f"trace {float(tr[off][0])!r} is not 1 within 1e-9")
    herm = (mats + adj) / 2
    if vectors:
        w, v = np.linalg.eigh(herm)
    else:
        w = np.linalg.eigvalsh(herm)
    if w.size and float(w.min()) < -STATE_TOL:
        raise ValueError(f"density matrix has eigenvalue {float(w.min()):.3e} < -1e-9")
    return (w, v) if vectors else w


def check_state_vectors(dims: Sequence[int], vecs: np.ndarray) -> tuple[int, ...]:
    """PureState's checks on a (N, D) stack of state vectors; returns the checked dims.

    The dims must be valid, D must be their product, and each vector must be
    finite with unit norm within 1e-9.
    """
    dims = check_dims(dims)
    if vecs.shape[-1] != math.prod(dims):
        raise ShapeError(f"vector length {vecs.shape[-1]} does not match dims {dims}")
    if not np.isfinite(vecs).all():
        raise ValueError("state vector has non-finite entries")
    nrm = np.linalg.norm(vecs, axis=-1)
    off = np.abs(nrm - 1.0) > STATE_TOL
    if off.any():
        raise NormalizationError(f"norm {float(nrm[off][0])!r} is not 1 within 1e-9")
    return dims


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator on a composite system.

    Validates Hermiticity, unit trace and positivity (up to 1e-9) on
    construction, so anything carrying this type is safe to feed onward.
    `factor` is not a constructor argument: only `reduced_state` sets it,
    to the reshaped state vector X with mat = X X^dagger, so that
    factor-based kernels (the two-qubit closed form) skip an eigen-solve.
    It is not compared and not saved, so a reloaded or rebuilt state takes
    the eigen-solve route, whose bits may differ by about 1e-15.
    """

    dims: tuple[int, ...]
    mat: np.ndarray
    factor: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        dims = check_dims(self.dims)
        mat = as_cmatrix(self.mat).copy()
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise ShapeError(f"matrix shape {mat.shape} does not match dims {dims}")
        density_spectra(mat[None])
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class PureState:
    """State vector on a composite system, unit norm within 1e-9."""

    dims: tuple[int, ...]
    vec: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=np.complex128).reshape(-1).copy()
        dims = check_state_vectors(self.dims, vec[None])
        vec.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "vec", vec)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def projector(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.dims, self.projector())


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Bipartite decomposition psi = sum_k coeffs[k] u_k (x) v_k.

    Coefficients are non-increasing and strictly positive; the columns of
    left_vectors/right_vectors are orthonormal.
    """

    coeffs: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


def split_cut(dims: Sequence[int], cut: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Validate a left-block index set; return (left, right) sorted tuples."""
    n = len(dims)
    cut = [int(i) for i in cut]
    left = sorted(set(cut))
    if not left:
        raise ValueError("cut must name at least one subsystem")
    if left[0] < 0 or left[-1] >= n:
        raise ValueError(f"cut {left} out of range for {n} subsystems")
    if len(left) != len(cut):
        raise ValueError(f"cut {cut} repeats a subsystem index")
    right = [i for i in range(n) if i not in left]
    if not right:
        raise ValueError("cut must leave the right block nonempty")
    return tuple(left), tuple(right)


def cut_permutation(dims: Sequence[int], cut: Iterable[int]) -> tuple[np.ndarray, int, int]:
    """Flat index permutation moving the left block in front.

    Returns (perm, d_left, d_right) with perm such that
    vec[perm].reshape(d_left, d_right) has the cut's block as the row index.
    """
    left, right = split_cut(dims, cut)
    n = len(dims)
    order = left + right
    perm = np.arange(math.prod(dims)).reshape(tuple(dims)).transpose(order).reshape(-1)
    d_left = math.prod(dims[i] for i in left)
    d_right = math.prod(dims[i] for i in right)
    return perm, d_left, d_right


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every subsystem not named in `keep` (kept order preserved)."""
    keep = sorted(set(int(i) for i in keep))
    n = len(rho.dims)
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep={keep} out of range for {n} subsystems")
    t = rho.mat.reshape(rho.dims + rho.dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    red = np.einsum(t, row + col, out)
    d = math.prod(rho.dims[i] for i in keep)
    return DensityMatrix(tuple(rho.dims[i] for i in keep), red.reshape(d, d))


def reduced_state(psi: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density operator of a pure state on the kept subsystems."""
    keep = sorted(set(int(i) for i in keep))
    n = len(psi.dims)
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep={keep} out of range for {n} subsystems")
    if len(keep) == n:
        return psi.to_density()
    x = reduced_factors(psi.vec[None], psi.dims, keep)[0]
    rho = DensityMatrix(tuple(psi.dims[i] for i in keep), _gram(x))
    x.setflags(write=False)
    object.__setattr__(rho, "factor", x)     # mat is X X^dagger by construction
    return rho


def reduced_factors(vecs: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Each row of a (N, D) stack of vectors reshaped with the kept block as its row index.

    The (N, d_keep, d_rest) result is a stack of factors X of the
    reductions X X^dagger on the kept subsystems.  `keep` must leave at
    least one subsystem to trace out.
    """
    perm, dk, dt = cut_permutation(dims, keep)
    return vecs[:, perm].reshape(-1, dk, dt)


def _gram(x: np.ndarray) -> np.ndarray:
    return x @ np.swapaxes(x.conj(), -1, -2)


def reduced_operators(vecs: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """X X^dagger on the kept subsystems for each row of a (N, D) stack of vectors.

    X is the vector's `reduced_factors` reshape.  The result is the
    unchecked (N, d_keep, d_keep) stack; `density_spectra` checks it.
    """
    return _gram(reduced_factors(vecs, dims, keep))


def spectral_entropy(values: np.ndarray, floor: float = EIG_FLOOR) -> float | np.ndarray:
    """-sum v log2 v over entries above `floor`; tiny negatives are clipped.

    The workhorse behind both entropies; also usable directly on the
    spectrum of a subnormalized positive operator.  A stack of spectra is
    reduced over its last axis to an array of entropies; a single spectrum
    gives a float.  Each spectrum sums its kept terms alone, as `np.sum`
    sums them (from 0, pairwise), so an entropy does not depend on the
    stack it came in.
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size and float(v.min()) < -STATE_TOL:
        raise ValueError(f"spectrum has entry {float(v.min()):.3e} < -1e-9")
    rows = v.reshape(math.prod(v.shape[:-1]), v.shape[-1])
    kept = rows > floor
    row_of, _ = np.nonzero(kept)
    x = rows[kept]
    counts = np.bincount(row_of, minlength=len(rows))
    # each row's terms follow a 0.0 of their own, so reduceat sums a row as
    # np.sum does, and an empty row sums to 0.0
    terms = np.zeros(len(rows) + x.size)
    terms[np.arange(x.size) + row_of + 1] = x * np.log2(x)
    sums = np.add.reduceat(terms, np.arange(len(rows)) + np.cumsum(counts) - counts)
    out = np.where(counts > 0, -sums, 0.0).reshape(v.shape[:-1])
    return float(out) if out.ndim == 0 else out


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr rho log2 rho, in bits."""
    w = np.linalg.eigvalsh((rho.mat + rho.mat.conj().T) / 2)
    return spectral_entropy(w)


def shannon_entropy(weights: Sequence[float]) -> float:
    """H(p) in bits; weights must be a probability vector within 1e-9."""
    p = np.asarray(weights, dtype=float).reshape(-1)
    if p.size == 0:
        raise ValueError("empty weight vector")
    if float(p.min()) < -EIG_FLOOR:
        raise ValueError(f"negative weight {float(p.min()):.3e}")
    if abs(float(p.sum()) - 1.0) > STATE_TOL:
        raise NormalizationError(f"weights sum to {float(p.sum())!r}, not 1")
    return spectral_entropy(np.clip(p, 0.0, None))


def schmidt(psi: PureState, cut: Iterable[int]) -> SchmidtDecomposition:
    """Schmidt decomposition across an explicit bipartition."""
    perm, dl, dr = cut_permutation(psi.dims, cut)
    x = psi.vec[perm].reshape(dl, dr)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    keep = s > math.sqrt(EIG_FLOOR)
    return SchmidtDecomposition(s[keep].copy(), u[:, keep].copy(), vh[keep, :].T.copy())


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Tensor product state; subsystem lists concatenate."""
    dims = a.dims + b.dims
    check_dims(dims)
    return DensityMatrix(dims, np.kron(a.mat, b.mat))


def tensor_pure(a: PureState, b: PureState) -> PureState:
    """Tensor product of pure states; subsystem lists concatenate."""
    dims = a.dims + b.dims
    check_dims(dims)
    return PureState(dims, np.kron(a.vec, b.vec))


# ---------------------------------------------------------------------------
# state files: {"dims": [...], "kind": "density"|"pure", "data": [[re, im], ...]}
# data is row-major over the matrix (density) or the vector (pure)


def complex_to_pairs(z: np.ndarray) -> list[list[float]]:
    """Flatten a complex array (row-major) to [re, im] float pairs."""
    flat = np.asarray(z, dtype=np.complex128).reshape(-1)
    return [[float(c.real), float(c.imag)] for c in flat]


def pairs_to_complex(pairs) -> np.ndarray:
    """Inverse of complex_to_pairs, as a flat complex vector."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("data must be a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def state_to_payload(state: DensityMatrix | PureState) -> dict:
    """JSON-ready dict for a state, full float precision."""
    if isinstance(state, DensityMatrix):
        return {"dims": list(state.dims), "kind": "density", "data": complex_to_pairs(state.mat)}
    if isinstance(state, PureState):
        return {"dims": list(state.dims), "kind": "pure", "data": complex_to_pairs(state.vec)}
    raise TypeError(f"not a state: {type(state).__name__}")


def payload_to_state(payload: dict) -> DensityMatrix | PureState:
    """Parse and validate a state payload (invariants enforced on load)."""
    try:
        dims = tuple(int(d) for d in payload["dims"])
        kind = payload["kind"]
        data = pairs_to_complex(payload["data"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state payload: {exc}") from exc
    d = math.prod(dims) if dims else 0
    if kind == "density":
        if data.shape[0] != d * d:
            raise ValueError(f"density payload has {data.shape[0]} entries, expected {d * d}")
        return DensityMatrix(dims, data.reshape(d, d))
    if kind == "pure":
        if data.shape[0] != d:
            raise ValueError(f"pure payload has {data.shape[0]} entries, expected {d}")
        return PureState(dims, data)
    raise ValueError(f"unknown state kind {kind!r}")


def save_state(path, state: DensityMatrix | PureState) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_payload(state), fh)
        fh.write("\n")


def load_state(path) -> DensityMatrix | PureState:
    with open(path, "r", encoding="utf-8") as fh:
        return payload_to_state(json.load(fh))
