"""Entanglement of formation: exact pieces and the ensemble minimizer.

The minimizer searches decompositions of rho through the isometry map: an
m x rank(rho) complex matrix Y, held as 2 m rank real parameters, has the
polar factor V = Y (Y^dagger Y)^{-1/2}, an isometry that feeds
`hjw_ensemble`, and the ensemble-average entanglement across the requested
cut is pushed down by L-BFGS-B.  Every restart runs scipy's own L-BFGS-B
steps (its reverse-communication routine `setulb`, driven the way
`scipy.optimize.minimize` drives it), and all restarts run in lockstep:
each round steps every live restart until it asks for f and g, then
evaluates the pending points that share a member count m in one stacked
objective call.  That call returns each point's value with its exact
gradient: a part cost (`PartCost`) maps the raw (B, D, m) member columns
sqrt(p_i) psi_i of B restarts, and the part of each, to their B values and
Wirtinger gradients, which are chained back through the polar factor to
the parameters.  Every step acts on each point alone, and each restart's
terms are summed in one flat order (`member_sums`), so a restart gets the
same bits in any stack and takes the steps of a scipy.optimize.minimize
call of its own.  `minimize_parts` is the one search: it runs one search
per listed part of a cost, all in one lockstep, and `eof_minimize` is its
single part of entanglement entropy across a cut.
The member kernels return unreduced terms with their gradients: the
entanglement entropy across a cut (`entropy_terms`, from one eigh of the
smaller Gram matrix of the reshaped members) and the two-qubit Wootters
EoF of a pair reduction (`wootters_terms`), whose concurrence and gradient
come from one batched kernel, `concurrence_factors`; `cut_member_cost`
sums either over several cuts of one block shape in one stacked kernel
call.
Restart 0 starts from Y = 1, rank x rank (the eigen-decomposition), optional
warm starts follow as their own isometries, one row per member, and the
remaining restarts draw Gaussian m x rank Y (Haar-random isometries) from
streams seeded by (seed, restart index), so the whole estimate is
deterministic for fixed options.  No start is padded with zero rows: a zero
row is a member of weight 0 whose gradient is exactly 0, so L-BFGS-B would
never move it.  `EofEstimate.restart_runs` keeps each restart's start kind,
member count, iterations, evaluations and stop reason.

Every value this module produces is an upper bound on the true EoF; only the
two-qubit closed form, and the decomposition that attains it
(`wootters_decomposition`), are exact.  The closed form works on a factor X
of rho = X X^dagger, not on rho: `eof_stack` takes a stack of factors (a
pure state's reshape across a pair cut, say), so no reduced operator is
formed and none is eigen-solved, and `eof_wootters_2q` takes
V sqrt(w) from rho's eigh (`eof_wootters_stack` on a stack of one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy  # scipy.optimize loads at the first search

from .ensembles import (
    Ensemble,
    hjw_ensemble,
    isometry_for_ensemble,
    support_decomposition,
)
from .qmat import ShapeError
from .qstate import (
    EIG_FLOOR,
    STATE_TOL,
    DensityMatrix,
    NormalizationError,
    PureState,
    cut_permutation,
    density_spectra,
    schmidt,
    spectral_entropy,
)

# "auto" ensemble size: min(rank^2, max(AUTO_ENSEMBLE_FLOOR, 2 rank)) members
AUTO_ENSEMBLE_FLOOR = 16

# raw (B, D, m) member columns of B searches, each point valued by its own
# part's cost: (raw (B, D, m), parts (B,)) -> (values (B,), dF/d conj(raw))
PartCost = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def eof_pure(psi: PureState, cut: Iterable[int]) -> float:
    """Exact entanglement of a pure state across the cut (marginal entropy)."""
    s = schmidt(psi, cut).coeffs
    return spectral_entropy(s * s)


def ensemble_average_entanglement(e: Ensemble, cut: Iterable[int]) -> float:
    """sum_i p_i E(psi_i) across the cut; an upper bound on EoF of mix(e)."""
    cut = tuple(cut)
    return float(sum(w * eof_pure(s, cut) for w, s in e))


# sigma_y (x) sigma_y maps |00>, |01>, |10>, |11> to -|11>, |10>, |01>, -|00>:
# a row reversal with these signs, exact in floating point
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])
_TINY = np.finfo(float).tiny
_LN2 = math.log(2.0)


def _flip_tau(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Y x Y) X and the complex symmetric tau = X^T (Y x Y) X of a (..., 4, k) stack of X."""
    flip = x[..., ::-1, :] * _YY_SIGNS[:, None]
    return flip, np.swapaxes(x, -1, -2) @ flip


def concurrence_factors(x: np.ndarray, gradient: bool = False):
    """Two-qubit concurrence of rho = X X^dagger for a (..., 4, k) stack of X.

    C = max(0, s1 - s2 - s3 - s4) from the singular values s of the complex
    symmetric tau = X^T (Y x Y) X, which are the square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y); X is not normalized, so C
    scales with tr rho.  With gradient=True, also returns the Wirtinger
    gradient dC/d conj(X) = (Y x Y) conj(X) (W + W^T) / 2 with
    W = U diag(1, -1, ..., -1) V^dagger from the same SVD tau = U S V^dagger,
    and the zero subgradient where C clips to 0.
    """
    flip, tau = _flip_tau(x)
    if not gradient:
        s = np.linalg.svd(tau, compute_uv=False)
        return np.maximum(0.0, s[..., 0] - s[..., 1:].sum(axis=-1))
    u, s, vh = np.linalg.svd(tau)
    conc = s[..., 0] - s[..., 1:].sum(axis=-1)
    signs = -np.ones(s.shape[-1])
    signs[0] = 1.0
    w = (u * signs) @ vh
    grad = 0.5 * flip.conj() @ (w + np.swapaxes(w, -1, -2))
    grad[conc <= 0.0] = 0.0
    return np.maximum(conc, 0.0), grad


def _eof_from_concurrence(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E(c) = h((1 + sqrt(1 - c^2)) / 2) and dE/dc for concurrences c >= 0.

    With r = sqrt(1 - c^2), x = (1 + r) / 2 and y = 1 - x = c^2 / (4 x),
    both entropy terms stay accurate for small c, and
    dE/dc = c artanh(r) / (r ln 2) = c (ln x - ln y) / (2 r ln 2) stays
    finite as c -> 0 (where it tends to 0) and as c -> 1 (where it tends to
    1 / ln 2, the value taken at r = 0).
    """
    c = np.minimum(c, 1.0)                  # rounding can put C/p a hair above 1
    r = np.sqrt((1.0 - c) * (1.0 + c))
    x = (1.0 + r) / 2.0
    y = c * c / (4.0 * x)
    log_x = np.log1p(-y)
    log_y = np.log(np.maximum(y, _TINY))     # y * log_y = 0 wherever y = 0
    value = (0.0 - x * log_x - y * log_y) / _LN2        # 0.0 - keeps E(0) = +0.0
    at_one = r == 0.0                       # c = 1, where artanh(r) / r -> 1
    ratio = (log_x - log_y + at_one) / (2.0 * r + at_one)
    return value, c * ratio / _LN2


def _wootters_eof(x: np.ndarray) -> np.ndarray:
    """Exact two-qubit EoF of rho = X X^dagger for each X in a (N, 4, k) stack."""
    return _eof_from_concurrence(concurrence_factors(x))[0]


def _density_factors(mats: np.ndarray) -> np.ndarray:
    """The factor X = V sqrt(w) of each operator in a (N, d, d) stack of density
    operators, from its eigh with DensityMatrix's checks (`density_spectra`)."""
    w, v = density_spectra(mats, vectors=True)
    return v * np.sqrt(np.maximum(w, 0.0))[..., None, :]


def eof_wootters_stack(mats: np.ndarray) -> np.ndarray:
    """Exact two-qubit EoF of each operator in a (N, 4, 4) stack of density matrices."""
    return _wootters_eof(_density_factors(mats))


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.dims != (2, 2):
        raise ValueError(f"two-qubit closed form needs dims (2, 2), got {rho.dims}")


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit concurrence of rho, from the factor V sqrt(w) of its eigh
    (`concurrence_factors`)."""
    _require_two_qubits(rho)
    return float(concurrence_factors(_density_factors(rho.mat[None]))[0])


def eof_wootters_2q(rho: DensityMatrix) -> float:
    """Exact two-qubit EoF via the concurrence closed form."""
    _require_two_qubits(rho)
    return float(eof_wootters_stack(rho.mat[None])[0])


def _takagi(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s, descending, and a unitary Q with tau = Q diag(s) Q^T, for a complex symmetric n x n tau.

    With tau = A + iB, q = a + ib solves tau conj(q) = s q exactly when [a; b]
    is an eigenvector of the real symmetric [[A, B], [B, -A]] for the
    eigenvalue s, whose spectrum is the singular values of tau and their
    negatives.  The n largest eigenpairs give s and the columns of Q.  Where a
    singular value repeats, eigh's basis of its eigenspace is free, and the
    columns read off it can be dependent (q and i q both); the Householder QR
    makes Q unitary and changes a well-separated column at most by a sign,
    which keeps tau conj(q) = s q.
    """
    n = tau.shape[0]
    a, b = tau.real, tau.imag
    w, v = np.linalg.eigh(np.block([[a, b], [b, -a]]))
    top = v[:, : -n - 1 : -1]
    q, _ = np.linalg.qr(top[:n] + 1j * top[n:])
    return np.maximum(w[: -n - 1 : -1], 0.0), q


def _zero_diagonal(m: np.ndarray) -> np.ndarray:
    """A real orthogonal O with diag(O m O^T) = 0, for a real symmetric traceless m.

    Each Givens rotation, in the plane of the largest entry a > 0 and the
    smallest c < 0 of the diagonal, turns a to 0 and leaves the zeros made
    before, so n - 1 rotations finish an n x n m.
    """
    n = len(m)
    o = np.eye(n)
    for _ in range(n - 1):
        d = np.diag(m)
        i, j = int(np.argmax(d)), int(np.argmin(d))
        a, b, c = m[i, i], m[i, j], m[j, j]
        if not a > 0.0 > c:
            break
        # t = tan(angle) solves a + 2 b t + c t^2 = 0; as a c < 0, q != 0
        q = -(b + math.copysign(math.sqrt(b * b - a * c), b))
        t = a / q
        g = np.eye(n)
        g[i, i] = g[j, j] = 1.0 / math.sqrt(1.0 + t * t)
        g[i, j] = t * g[i, i]
        g[j, i] = -g[i, j]
        m = g @ m @ g.T
        o = g @ o
    return o


def _closing_phases(s: np.ndarray) -> np.ndarray:
    """Phases theta with sum_j s_j exp(i theta_j) = 0, for s1 >= s2 >= s3 >= s4 >= 0
    and s1 <= s2 + s3 + s4.

    The quadrilateral closes along a diagonal of length L = max(s1 - s2, s3 - s4),
    which makes triangles with the sides (s1, s2) and with (s3, s4).
    """
    diag = max(s[0] - s[1], s[2] - s[3])
    if diag <= 0.0:                          # s1 = s2 and s3 = s4
        return np.array([0.0, math.pi, 0.0, math.pi])

    def triangle(a: float, b: float) -> list[complex]:
        # z = x + iy with |z| = a >= b = |diag - z|; a - x = (b^2 - (a - L)^2) / 2L
        # in factored form keeps y accurate for a flat triangle (b << a)
        a_minus_x = (b - (a - diag)) * (b + (a - diag)) / (2.0 * diag)
        z = complex(a - a_minus_x, math.sqrt(max(a_minus_x * (2.0 * a - a_minus_x), 0.0)))
        return [z, diag - z]

    return np.angle(triangle(s[0], s[1]) + [-z for z in triangle(s[2], s[3])])


# the 4 x 4 Hadamard matrix over 2: every entry is +-1/2, so each member of
# Y H_4 weighs every column of Y by 1/4
_HADAMARD_4 = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


def wootters_decomposition(rho: DensityMatrix) -> Ensemble:
    """An exact optimal decomposition of a two-qubit state (Wootters, PRL 80, 2245 (1998)).

    Every member has the concurrence C of rho, so the average entanglement
    is eof_wootters_2q(rho).  The subnormalized eigenvectors V (padded to
    four columns) give tau = V^T (Y x Y) V; its Takagi factorization
    tau = Q diag(s) Q^T makes X = V conj(Q) a factor of rho = X X^dagger
    with x_i^T (Y x Y) x_j = s_i delta_ij, and C = s1 - s2 - s3 - s4.  For
    C > 0, Y = X diag(1, i, i, i) has the traceless real
    M = diag(s1, -s2, -s3, -s4) - C Re(Y^dagger Y), and the members Y O^T,
    for a rotation O that zeroes the diagonal of O M O^T, each have
    concurrence C.  For C <= 0, phases with sum_j s_j exp(i theta_j) = 0 make
    every member of X diag(exp(i theta / 2)) H_4 separable.  Members of
    weight below hjw_ensemble's ptol are dropped.
    """
    _require_two_qubits(rho)
    lam, vecs = support_decomposition(rho)
    basis = np.zeros((4, 4), dtype=np.complex128)
    basis[:, : lam.size] = vecs * np.sqrt(lam)
    s, q = _takagi(_flip_tau(basis)[1])
    conc = s[0] - s[1:].sum()
    if conc > 0.0:
        u = q.conj() * np.array([1.0, 1j, 1j, 1j])
        y = basis @ u
        m = np.diag(s * np.array([1.0, -1.0, -1.0, -1.0])) - conc * (y.conj().T @ y).real
        u = u @ _zero_diagonal(m).T
    else:
        u = q.conj() * np.exp(0.5j * _closing_phases(s)) @ _HADAMARD_4
    # members are the columns of basis u, that is of V u over the support
    return hjw_ensemble(rho, u[: lam.size].T)


def member_sums(terms: np.ndarray, lead: tuple) -> np.ndarray:
    """Each leading index's sum of its terms, in flat order: a row sum of a
    (prod(lead), -1) array adds a search's terms exactly as a flat sum does."""
    return terms.reshape(*lead, -1).sum(axis=-1)


def entropy_terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms of p_i S(psi_i) for each (d_left, d_right) member in a
    (..., d_left, d_right) stack, and its gradient.

    Member i is X_i = sqrt(p_i) psi_i reshaped across a cut.  With
    M = X X^dagger and p = tr M, p S = -tr M log2(M/p) has the Wirtinger
    gradient -log2(M/p) X = -X log2(X^dagger X / p), taken here from one
    eigh of the smaller of the two Gram matrices, whose eigenvalues lam are
    the squared Schmidt coefficients.  The terms are -lam log2(lam/p), one
    per eigenvalue, shape (..., min(d_left, d_right)); `member_sums` adds
    them up.  Terms the value drops (lam/p <= EIG_FLOOR, or p <= 1e-15) are
    0 and get zero weight in the gradient too.
    """
    xh = np.swapaxes(x, -1, -2).conj()
    rows = x.shape[-2] <= x.shape[-1]
    lam2, u = np.linalg.eigh(x @ xh if rows else xh @ x)
    p = lam2.sum(axis=-1)
    p_safe = np.where(p > 1e-15, p, 1.0)
    mu = lam2 / p_safe[..., None]
    mask = (mu > EIG_FLOOR) & (p[..., None] > 1e-15)
    log_mu = np.log2(np.where(mask, mu, 1.0))
    terms = np.where(mask, -lam2 * log_mu, 0.0)
    log_m = (u * log_mu[..., None, :]) @ np.swapaxes(u, -1, -2).conj()
    return terms, -(log_m @ x if rows else x @ log_m)


def wootters_terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The term p_i E_f(rho_i) of each (4, k) member in a (..., 4, k) stack,
    and its gradient.

    Member i is a factor X_i of its unnormalized two-qubit reduction
    rho_i = X_i X_i^dagger with p = tr rho_i.  The term f = p E(c) with
    c = C/p has the Wirtinger gradient E(c) X + E'(c) (dC/d conj(X) - c X),
    which is zero wherever C clips to 0.  Members with p <= 1e-15 are given
    c = 0, hence zero value and gradient.  The terms have the leading shape
    of the stack, one per member; `member_sums` adds them up.
    """
    conc, dconc = concurrence_factors(x, gradient=True)
    p = np.einsum("...ij,...ij->...", x.conj(), x).real
    live = p > 1e-15
    c = np.where(live, conc / np.where(live, p, 1.0), 0.0)
    e, de = _eof_from_concurrence(c)
    grad = e[..., None, None] * x + de[..., None, None] * (dconc - c[..., None, None] * x)
    return p * e, grad


def cut_member_cost(dims: Sequence[int], cuts: Sequence, kernel=entropy_terms) -> PartCost:
    """Part cost that values every part the same way: the sum over the cuts
    of `kernel`'s terms for each member reshaped across the cut.

    The cuts must split `dims` into blocks of one shape, so that the members
    reshaped across every cut go to `kernel` as one
    (..., m len(cuts), d_left, d_right) stack, member-major; a search's
    terms are added in that flat order (`member_sums`).  The returned cost
    maps the raw (B, D, m) member columns sqrt(p_i) psi_i of B searches, in
    the native subsystem order of `dims`, to (values (B,), dF/d conj(raw));
    it takes any leading shape in place of B, and does not read the parts.
    """
    splits = [cut_permutation(dims, cut) for cut in cuts]
    shapes = {split[1:] for split in splits}
    if len(shapes) != 1:
        raise ValueError(f"cuts {list(cuts)} of dims {tuple(dims)} need one block shape, "
                         f"got {sorted(shapes)}")
    [(d_left, d_right)] = shapes
    perms = np.array([split[0] for split in splits])            # (k, D)
    k, size = perms.shape
    # flat positions in a member's k permuted copies of each native index
    back = np.argsort(perms, axis=1) + size * np.arange(k)[:, None]

    def cost(raw: np.ndarray, parts) -> tuple[np.ndarray, np.ndarray]:
        *lead, _, m = raw.shape
        members = np.swapaxes(raw, -1, -2)[..., perms]          # (..., m, k, D)
        terms, g = kernel(members.reshape(*lead, m * k, d_left, d_right))
        g = g.reshape(*lead, m, k * size)[..., back].sum(axis=-2)
        return member_sums(terms, tuple(lead)), np.swapaxes(g, -1, -2)

    return cost


@dataclass
class EofOptions:
    """Knobs for the decomposition search.

    ensemble_size "auto" resolves to min(rank^2, max(16, 2 rank)): all of
    rank^2 up to rank 4, 16 from rank 4 to 8, and 2 rank above that, so the
    search can always add members to the eigen-ensemble once rank > 1.
    No option selects how gradients are taken: every part cost supplies
    its own exact gradient (see minimize_parts).
    """

    restarts: int = 20
    max_iterations: int = 500
    ensemble_size: int | str = "auto"
    convergence_tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.convergence_tol < math.inf:     # NaN fails too
            raise ValueError(f"convergence_tol must be positive and finite, "
                             f"got {self.convergence_tol!r}")
        if self.ensemble_size != "auto":
            self.ensemble_size = int(self.ensemble_size)
            if self.ensemble_size < 1:
                raise ValueError("ensemble_size must be >= 1 or 'auto'")


@dataclass(frozen=True)
class RestartRun:
    """One restart of a search: how it started and how L-BFGS-B ended it.

    `start` is "eigen", "warm" or "random", `members` the start's member
    count m, and `stop` setulb's final task as scipy words it (for example
    "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH").
    """

    start: str
    members: int
    nit: int
    nfev: int
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop.startswith("CONVERGENCE")


@dataclass
class EofEstimate:
    """Outcome of a minimization run.

    `value` is the smallest objective seen; nonconvergence is reported in
    `converged`, never raised.  `restart_values` and `restart_runs` hold
    one entry per restart, in start order.
    """

    value: float
    best_ensemble: Ensemble
    converged: bool
    restarts_used: int
    iterations: int
    restart_values: tuple[float, ...] = field(default=())
    restart_runs: tuple[RestartRun, ...] = field(default=())


def _pack(y: np.ndarray) -> np.ndarray:
    """[Re Y, Im Y] of an m x rank complex Y, or of each Y in a (..., m, rank)
    stack: the search's parameter vectors."""
    lead = y.shape[:-2]
    return np.concatenate([y.real.reshape(*lead, -1), y.imag.reshape(*lead, -1)], axis=-1)


def _adjoint(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


class _DecompositionObjective:
    """sum_i p_i cost(psi_i) over the polar chart, with its exact gradient.

    A parameter vector x = _pack(Y) holds an m x rank complex Y, with m read
    from its length; a call takes a (B, 2 m rank) stack of them (any leading
    shape serves), and the part of each, and returns the B values and the B
    gradients.  Its polar factor V = Y S^{-1/2}, S = Y^dagger Y, is the
    isometry; every m x rank isometry is the polar factor of itself.  The
    member columns are raw = basis V^T (column i is sqrt(p_i) psi_i), and
    the part cost returns the values with the Wirtinger derivative
    G_raw = dF/d conj(raw), which is chained back through raw -> V -> Y -> x.
    Every step acts on each point of the stack alone, so a point gets the
    same bits in any stack.
    """

    def __init__(self, rho: DensityMatrix, cost: PartCost):
        lam, vecs = support_decomposition(rho)
        self.rank = int(lam.size)
        self.basis = vecs * np.sqrt(lam)
        self.cost = cost

    def _polar(self, x: np.ndarray):
        """Y, S^{-1/2} and (sqrt(s), W) from S = Y^dagger Y = W diag(s) W^dagger."""
        parts = x.reshape(*x.shape[:-1], 2, -1, self.rank)
        y = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
        s, w = np.linalg.eigh(_adjoint(y) @ y)
        root = np.sqrt(s)
        return y, (w / root[..., None, :]) @ _adjoint(w), root, w

    def isometry(self, x: np.ndarray) -> np.ndarray:
        """The polar factor of Y(x), which feeds `hjw_ensemble`."""
        y, inv_root, _, _ = self._polar(x)
        return y @ inv_root

    def __call__(self, x: np.ndarray, parts) -> tuple[np.ndarray, np.ndarray]:
        """Objective values and their gradients at a stack of parameter vectors
        of the given parts."""
        y, inv_root, root, w = self._polar(x)
        values, g_raw = self.cost(self.basis @ np.swapaxes(y @ inv_root, -1, -2), parts)
        g_v = np.swapaxes(self.basis.conj().T @ g_raw, -1, -2)
        # divided differences of s^{-1/2}, written without a difference
        # quotient, so equal or nearly equal s stay exact
        row, col = root[..., :, None], root[..., None, :]
        gamma = -1.0 / (row * col * (row + col))
        wh = _adjoint(w)
        n = w @ (gamma * (wh @ _adjoint(y) @ g_v @ w)) @ wh
        g_y = g_v @ inv_root + y @ (n + _adjoint(n))
        return values, 2.0 * _pack(g_y)


def _params_for_ensemble(rho: DensityMatrix, e: Ensemble) -> np.ndarray:
    """Parameter vector whose polar factor reproduces the given decomposition.

    The isometry of e, one row per member, is its own polar factor.
    """
    return _pack(isometry_for_ensemble(rho, e))


def resolve_ensemble_size(rank: int, requested: int | str, warm_sizes: Sequence[int] = ()) -> int:
    """Apply the auto rule and the hard floors (rank, warm-start member count)."""
    if requested == "auto":
        m = min(rank * rank, max(AUTO_ENSEMBLE_FLOOR, 2 * rank))
    else:
        m = int(requested)
        if m < rank:
            raise ValueError(f"ensemble_size {m} is below the state rank {rank}")
    return max(m, rank, *(int(s) for s in warm_sizes), 1)


# scipy.optimize.minimize(method="L-BFGS-B")'s settings that the search
# keeps: correction pairs, line-search steps per iteration, evaluation cap;
# and the projected-gradient tolerance the search has always passed
_MAXCOR, _MAXLS, _MAXFUN, _GTOL = 10, 20, 15000, 1e-6
# setulb's task codes that the loop reads: task[0] is its state, task[1]
# the reason
_NEW_X, _FG, _STOP = 1, 3, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504


class _LbfgsbRun:
    """One restart's L-BFGS-B state for scipy's reverse-communication
    `setulb`, kept as `scipy.optimize._lbfgsb_py._minimize_lbfgsb` keeps it.

    `advance` runs `_minimize_lbfgsb`'s loop until setulb asks for f and g
    at a point it has not been given, and `evaluated` hands them over.  As
    scipy's ScalarFunction does, a request for the point last evaluated
    reuses its f and g and is not counted in nfev.  `part` is the part
    whose cost values the run's points (`minimize_parts`).
    """

    def __init__(self, x0: np.ndarray, part: int):
        n = x0.size
        self.part = part
        self.x = np.array(x0, dtype=np.float64)
        self.f = 0.0
        self.g = np.zeros(n)
        self.x_eval = None
        self.best = (math.inf, None)               # lowest value seen, and its point
        self.nit = self.nfev = 0
        self.bounds = np.zeros(n)                  # unread: nbd = 0 leaves x unbounded
        self.nbd = np.zeros(n, np.int32)
        self.wa = np.zeros(2 * _MAXCOR * n + 5 * n + 11 * _MAXCOR ** 2 + 8 * _MAXCOR)
        self.iwa = np.zeros(3 * n, np.int32)
        self.task = np.zeros(2, np.int32)
        self.ln_task = np.zeros(2, np.int32)
        self.lsave = np.zeros(4, np.int32)
        self.isave = np.zeros(44, np.int32)
        self.dsave = np.zeros(29)

    def advance(self, setulb, factr: float, max_iterations: int) -> bool:
        """Step until setulb wants f and g at a new point (True) or stops (False)."""
        while True:
            setulb(_MAXCOR, self.x, self.bounds, self.bounds, self.nbd, self.f, self.g,
                   factr, _GTOL, self.wa, self.iwa, self.task, self.lsave, self.isave,
                   self.dsave, _MAXLS, self.ln_task)
            state = self.task[0]
            if state == _FG:
                if self.x_eval is None or not (self.x == self.x_eval).all():
                    return True
            elif state == _NEW_X:
                self.nit += 1
                if self.nit >= max_iterations:
                    self.task[:] = _STOP, _STOP_MAXITER
                elif self.nfev > _MAXFUN:
                    self.task[:] = _STOP, _STOP_MAXFUN
            else:
                return False

    def evaluated(self, x: np.ndarray, f: float, g: np.ndarray) -> None:
        self.x_eval, self.f, self.g = x, f, g
        self.nfev += 1
        if f < self.best[0]:
            self.best = (f, x)

    def stop_reason(self) -> str:
        from scipy.optimize._lbfgsb_py import status_messages, task_messages
        state, reason = (int(t) for t in self.task)
        return f"{status_messages[state]}: {task_messages[reason]}"


def _lockstep_lbfgsb(objective: _DecompositionObjective,
                     starts: Sequence[tuple[int, np.ndarray]],
                     opts: EofOptions) -> list[_LbfgsbRun]:
    """scipy's L-BFGS-B from every (part, start), all run in lockstep rounds.

    A round advances each live run until it asks for f and g, then
    evaluates the pending points that share a member count m (the length
    of their parameter vectors), whatever their parts, in one stacked
    objective call.  Each run sees exactly the f and g that a
    scipy.optimize.minimize call of its own would see, so it takes the
    same steps.
    """
    setulb = scipy.optimize._lbfgsb.setulb          # scipy.optimize loads here
    factr = opts.convergence_tol / np.finfo(float).eps
    runs = [_LbfgsbRun(x0, part) for part, x0 in starts]
    live = runs
    while live:
        live = [run for run in live if run.advance(setulb, factr, opts.max_iterations)]
        groups: dict[int, list[_LbfgsbRun]] = {}
        for run in live:
            groups.setdefault(run.x.size, []).append(run)
        for group in groups.values():
            xs = np.stack([run.x for run in group])
            values, grads = objective(xs, np.array([run.part for run in group]))
            for run, x, f, g in zip(group, xs, values.tolist(), grads):
                run.evaluated(x, f, g)
    return runs


def _search_starts(rho: DensityMatrix, rank: int, opts: EofOptions,
                   warm_starts: Sequence[Ensemble]) -> list[tuple[str, np.ndarray]]:
    """(kind, parameter vector) of every restart, in start order: the eigen
    start, the warm starts, then Gaussian starts seeded by (seed, index)."""
    m = resolve_ensemble_size(rank, opts.ensemble_size, [len(e) for e in warm_starts])
    starts = [("eigen", _pack(np.eye(rank)))]
    starts += [("warm", _params_for_ensemble(rho, e)) for e in warm_starts]
    for k in range(len(starts), max(opts.restarts, len(starts))):
        rng = np.random.default_rng([opts.seed, k])
        starts.append(("random", rng.standard_normal(2 * m * rank)))
    return starts


def minimize_parts(rho: DensityMatrix, cost: PartCost, parts: Sequence[int],
                   opts: EofOptions | None = None,
                   warm_starts: Sequence[Ensemble] = ()) -> list[EofEstimate]:
    """Minimize sum_i p_i c_k(psi_i) over decompositions of rho for each
    listed part k of `cost`, all in one lockstep; one estimate per part, in
    the order of `parts`.

    `cost` is a `PartCost`: it gets the raw (B, D, m) member columns
    v_i = sqrt(p_i) psi_i of B restarts, in the state's native subsystem
    order, with each restart's part, and returns their values (B,) with the
    Wirtinger gradients dF/d conj(v); `cut_member_cost` builds one from
    `entropy_terms` or `wootters_terms`.  One stacked objective call calls
    it once, for the pending points of every part.

    Every part runs the same starts, each at its own member count m: the
    eigen start at rank, a warm start at its member count, the random
    restarts at `resolve_ensemble_size`.  No start is padded with zero rows,
    which would never move.  All restarts run in lockstep
    (`_lockstep_lbfgsb`), each on scipy's L-BFGS-B steps, and a point's
    value and gradient do not depend on the points beside it, so part k's
    estimate is, bit for bit, that of `minimize_parts` with `[k]` alone.
    """
    opts = opts if opts is not None else EofOptions()
    obj = _DecompositionObjective(rho, cost)
    starts = _search_starts(rho, obj.rank, opts, warm_starts)
    runs = _lockstep_lbfgsb(obj, [(part, x0) for part in parts for _, x0 in starts], opts)
    n = len(starts)
    return [_estimate(rho, obj, starts, runs[k * n:(k + 1) * n]) for k in range(len(parts))]


def _estimate(rho: DensityMatrix, obj: _DecompositionObjective,
              starts: Sequence[tuple[str, np.ndarray]],
              runs: Sequence[_LbfgsbRun]) -> EofEstimate:
    """A search's estimate from its restarts' runs, in start order."""
    records = tuple(RestartRun(kind, x0.size // (2 * obj.rank), run.nit, run.nfev,
                               run.stop_reason())
                    for (kind, x0), run in zip(starts, runs))
    best_value, best_x, best_record = math.inf, starts[0][1], None
    for run, record in zip(runs, records):
        if run.best[0] < best_value:
            (best_value, best_x), best_record = run.best, record

    ensemble = hjw_ensemble(rho, obj.isometry(best_x))
    return EofEstimate(
        value=float(best_value),
        best_ensemble=ensemble,
        converged=best_record is not None and best_record.converged,
        restarts_used=len(runs),
        iterations=best_record.nit if best_record is not None else 0,
        restart_values=tuple(float(run.best[0]) for run in runs),
        restart_runs=records,
    )


def eof_minimize(
    rho: DensityMatrix,
    cut,
    opts: EofOptions | None = None,
    warm_starts: Sequence[Ensemble] = (),
) -> EofEstimate:
    """Numerical EoF upper bound across the cut: the decomposition search
    (`minimize_parts`) of entanglement entropy across `cut` as its one part."""
    return minimize_parts(rho, cut_member_cost(rho.dims, [tuple(cut)]), [0], opts,
                          warm_starts)[0]


# the name perfbench's tracer wraps as its "eof.minimize" span
minimize_over_decompositions = eof_minimize


def eof_stack(factors: np.ndarray, dims: Sequence[int], opts: EofOptions | None = None,
              warm_starts: Sequence[Ensemble] = ()) -> tuple[np.ndarray, bool]:
    """E_f of rho_n = X_n X_n^dagger for each factor in a (N, D, k) stack, and whether it is exact.

    k is free: a pure state's reshape, its transpose, or the members'
    factors side by side of a mixed state's reduction all serve.  Each
    factor must have sum |X|^2 = tr rho = 1 within 1e-9 (DensityMatrix's
    trace check; Hermiticity and positivity hold by construction).  At
    dims (2, 2) the closed form takes the factors directly, with no
    reduced operator and no eigen-solve, and is exact; otherwise each
    value is the upper bound of a decomposition search on
    DensityMatrix(dims, X X^dagger), and every search tries the warm starts.
    """
    dims = tuple(dims)
    x = np.asarray(factors)
    if x.ndim != 3 or x.shape[1] != math.prod(dims):
        raise ShapeError(f"need a (N, {math.prod(dims)}, k) stack of factors for dims {dims}, "
                         f"got shape {x.shape}")
    tr = np.einsum("nij,nij->n", x.conj(), x).real
    off = ~(np.abs(tr - 1.0) <= STATE_TOL)        # NaN is off too
    if off.any():
        raise NormalizationError(f"factor trace {float(tr[off][0])!r} is not 1 within 1e-9")
    if dims == (2, 2):
        return _wootters_eof(x), True
    mats = x @ np.swapaxes(x.conj(), -1, -2)
    values = [eof_minimize(DensityMatrix(dims, m), (0,), opts, warm_starts).value
              for m in mats]
    return np.array(values), False
