"""State families used throughout the checks, plus seeded random samplers.

All sampling goes through numpy's default_rng (PCG64); seeds are taken
verbatim, so equal seeds reproduce equal states bit for bit.  A Generator
passed as the seed is used as is, so successive draws continue its stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensembles import Ensemble
from .qmat import ShapeError
from .qstate import DensityMatrix, PureState


class ConstraintError(ValueError):
    """A structured state family's side condition is violated."""


@dataclass(frozen=True)
class Case1Spec:
    """Joint weight matrix for the doubled-Schmidt four-party family.

    Entry (a, b) is the weight on |a a>_(first pair) |b b>_(second pair);
    entries are non-negative and sum to one.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 2 or w.size == 0:
            raise ShapeError("weights must be a nonempty matrix")
        if float(w.min()) < -1e-12:
            raise ConstraintError(f"negative weight {float(w.min()):.3e}")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ConstraintError(f"weights sum to {float(w.sum())!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def row_weights(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    @property
    def col_weights(self) -> np.ndarray:
        return self.weights.sum(axis=0)


def case1_state(spec: Case1Spec) -> PureState:
    """Four-party pure state sum_ab sqrt(w[a,b]) |a>|a>|b>|b>.

    Subsystem order is (A, B, A', B') with dims (rows, rows, cols, cols):
    the first pair shares the row index, the second pair the column index.
    """
    w = spec.weights
    r, c = w.shape
    amp = np.sqrt(w)
    vec = np.zeros((r, r, c, c), dtype=np.complex128)
    for a in range(r):
        for b in range(c):
            vec[a, a, b, b] = amp[a, b]
    return PureState((r, r, c, c), vec.reshape(-1))


def case1_conditional(spec: Case1Spec, row: int) -> PureState:
    """Normalized second-pair state paired with row index `row`."""
    w = spec.weights
    lam = float(w[row].sum())
    if lam <= 0:
        raise ValueError(f"row {row} carries no weight")
    c = w.shape[1]
    vec = np.zeros((c, c), dtype=np.complex128)
    for b in range(c):
        vec[b, b] = math.sqrt(w[row, b] / lam)
    return PureState((c, c), vec.reshape(-1))


@dataclass(frozen=True)
class Case2Block:
    """One eigenvector block living on private local basis ranges.

    amplitudes[k, l] multiplies |a_range[0]+k>_A |b_range[0]+l>_B; the
    half-open ranges of different blocks must not overlap on either side.
    """

    weight: float
    amplitudes: np.ndarray
    a_range: tuple[int, int]
    b_range: tuple[int, int]

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        a0, a1 = (int(x) for x in self.a_range)
        b0, b1 = (int(x) for x in self.b_range)
        if self.weight < -1e-12:
            raise ConstraintError(f"negative block weight {self.weight!r}")
        if a0 < 0 or b0 < 0 or a1 <= a0 or b1 <= b0:
            raise ConstraintError(f"bad ranges {self.a_range}, {self.b_range}")
        if amp.shape != (a1 - a0, b1 - b0):
            raise ShapeError(
                f"amplitudes shape {amp.shape} does not match ranges "
                f"{self.a_range} x {self.b_range}"
            )
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > 1e-9:
            raise ConstraintError(f"block amplitudes norm {nrm!r} is not 1")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "a_range", (a0, a1))
        object.__setattr__(self, "b_range", (b0, b1))

    def vector(self, d_a: int, d_b: int) -> np.ndarray:
        out = np.zeros((d_a, d_b), dtype=np.complex128)
        out[self.a_range[0]:self.a_range[1], self.b_range[0]:self.b_range[1]] = self.amplitudes
        return out.reshape(-1)


@dataclass(frozen=True)
class Case2Spec:
    """Bipartite mixture whose eigenvectors occupy disjoint local bases.

    Distinct blocks see disjoint basis ranges on both sides, so the block
    label is readable from either subsystem alone.
    """

    d_a: int
    d_b: int
    blocks: tuple[Case2Block, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ConstraintError("need at least one block")
        total = sum(b.weight for b in blocks)
        if abs(total - 1.0) > 1e-9:
            raise ConstraintError(f"block weights sum to {total!r}, not 1")
        used_a: set[int] = set()
        used_b: set[int] = set()
        for b in blocks:
            ra = set(range(*b.a_range))
            rb = set(range(*b.b_range))
            if max(b.a_range[1], 0) > self.d_a or max(b.b_range[1], 0) > self.d_b:
                raise ConstraintError(f"block ranges exceed dims ({self.d_a}, {self.d_b})")
            if used_a & ra or used_b & rb:
                raise ConstraintError("blocks overlap on a local basis range")
            used_a |= ra
            used_b |= rb
        object.__setattr__(self, "blocks", blocks)


def case2_factor(spec: Case2Spec) -> DensityMatrix:
    """Mixture sum_J w_J |J><J| of the embedded block vectors."""
    d = spec.d_a * spec.d_b
    out = np.zeros((d, d), dtype=np.complex128)
    for b in spec.blocks:
        v = b.vector(spec.d_a, spec.d_b)
        out += b.weight * np.outer(v, v.conj())
    return DensityMatrix((spec.d_a, spec.d_b), out)


def case2_ensemble(spec: Case2Spec) -> Ensemble:
    """Blocks above weight 1e-12, renormalized; unlike an eigensolver's basis,
    the block vectors keep disjoint local supports."""
    keep = [b for b in spec.blocks if b.weight > 1e-12]
    w = np.array([b.weight for b in keep])
    dims = (spec.d_a, spec.d_b)
    states = tuple(PureState(dims, b.vector(*dims)) for b in keep)
    return Ensemble(w / float(w.sum()), states)


def two_block_spec(product_weight: float, d: int = 3) -> Case2Spec:
    """A product block |00> plus a maximally entangled block on the rest.

    With d = 3 this is the mixture of |00> (weight `product_weight`) and
    (|11> + |22>)/sqrt(2).
    """
    if not 0.0 <= product_weight <= 1.0:
        raise ConstraintError(f"weight {product_weight!r} outside [0, 1]")
    if d < 3:
        raise ConstraintError("need d >= 3 for an entangled second block")
    k = d - 1
    bell = np.eye(k, dtype=np.complex128) / math.sqrt(k)
    blocks = (
        Case2Block(product_weight, np.ones((1, 1), dtype=np.complex128), (0, 1), (0, 1)),
        Case2Block(1.0 - product_weight, bell, (1, d), (1, d)),
    )
    return Case2Spec(d, d, blocks)


def classical_spec(weights: Sequence[float]) -> Case2Spec:
    """Diagonal mixture sum_j w_j |jj><jj|; every block is one-dimensional."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    one = np.ones((1, 1), dtype=np.complex128)
    blocks = tuple(
        Case2Block(float(w[j]), one, (j, j + 1), (j, j + 1)) for j in range(w.size)
    )
    return Case2Spec(w.size, w.size, blocks)


def swap_operator(d: int) -> np.ndarray:
    """Flip operator F |i>|j> = |j>|i> on d (x) d."""
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[j * d + i, i * d + j] = 1.0
    return f


def werner_state(d: int, phi: float) -> DensityMatrix:
    """Isotropic-swap family ((d - phi) 1 + (d phi - 1) F) / (d (d^2 - 1)).

    phi = Tr(rho F) in [-1, 1] is the flip expectation; phi = -1 at d = 2
    is the singlet.
    """
    if d < 2:
        raise ValueError("werner_state needs d >= 2")
    if not -1.0 <= phi <= 1.0:
        raise ValueError(f"flip expectation {phi!r} outside [-1, 1]")
    f = swap_operator(d)
    eye = np.eye(d * d)
    mat = ((d - phi) * eye + (d * phi - 1.0) * f) / (d * (d * d - 1.0))
    return DensityMatrix((d, d), mat)


def werner_two_pair(phi: float) -> DensityMatrix:
    """d = 4 Werner state reinterpreted on two qubit pairs.

    The 4 (x) 4 lattice is split as AA'|BB' and the subsystems reordered to
    the canonical (A, B, A', B') layout, so the pair cut [0, 2] recovers the
    original Werner bipartition and the reductions onto (A, B) or (A', B')
    are two-qubit Werner states.
    """
    flat = werner_state(4, phi)
    # row/col multi-indices (a, a', b, b') -> (a, b, a', b')
    m = flat.mat.reshape([2] * 8)
    m = m.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    return DensityMatrix((2, 2, 2, 2), m)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circular complex Gaussians (unit total variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def random_density_dims(dims: Sequence[int], rank: int, seed) -> DensityMatrix:
    """G G† / Tr on the given grid, G a prod(dims) x rank seeded complex Gaussian."""
    dims = tuple(int(x) for x in dims)
    d = math.prod(dims)
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} outside 1..{d}")
    g = complex_gaussian(np.random.default_rng(seed), (d, rank))
    mat = g @ g.conj().T
    return DensityMatrix(dims, mat / mat.trace().real)


def random_density(d: int, rank: int, seed) -> DensityMatrix:
    """random_density_dims on a single d-level system."""
    return random_density_dims((d,), rank, seed)


def random_pure(dims: Sequence[int], seed) -> PureState:
    """Haar-like random unit vector on the given grid."""
    dims = tuple(int(x) for x in dims)
    v = complex_gaussian(np.random.default_rng(seed), math.prod(dims))
    return PureState(dims, v / np.linalg.norm(v))


def random_isometry(m: int, n: int, seed) -> np.ndarray:
    """Column-orthonormalization (QR) of a seeded m x n complex Gaussian.

    The R-diagonal phases are absorbed so the distribution is the Haar one.
    """
    if m < n:
        raise ShapeError(f"need m >= n, got ({m}, {n})")
    g = complex_gaussian(np.random.default_rng(seed), (m, n))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    return q * (diag / np.abs(diag)).conj()


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-like n x n unitary."""
    return random_isometry(n, n, seed)
