"""Entanglement of formation: exact pieces and the ensemble minimizer.

The minimizer searches decompositions of rho through the isometry map: an
m x rank(rho) complex matrix Y, held as 2 m rank real parameters, has the
polar factor V = Y (Y^dagger Y)^{-1/2}, an isometry that feeds
`hjw_ensemble`, and the ensemble-average entanglement across the requested
cut is pushed down by L-BFGS-B.  Each evaluation is one objective call,
which returns the value with its exact gradient: a member cost maps the raw
member columns sqrt(p_i) psi_i to the value and its Wirtinger gradient,
which is chained back through the polar factor to the parameters.  The
member costs here are the entanglement entropy across a cut
(`entropy_value_grad`) and the two-qubit Wootters EoF of a pair reduction
(`wootters_value_grad`), whose concurrence and gradient come from one
batched kernel, `concurrence_factors`.
Restart 0 starts from Y = [1; 0] (the eigen-decomposition), optional warm
starts follow as their own isometries padded with zero rows, and the
remaining restarts draw Gaussian Y (Haar-random isometries) from streams
seeded by (seed, restart index), so the whole estimate is deterministic for
fixed options.

Every value this module produces is an upper bound on the true EoF; only the
two-qubit closed form is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.optimize

from .ensembles import (
    Ensemble,
    hjw_ensemble,
    isometry_for_ensemble,
    support_decomposition,
)
from .qstate import (
    EIG_FLOOR,
    DensityMatrix,
    PureState,
    cut_permutation,
    density_spectra,
    schmidt,
    spectral_entropy,
)

# "auto" ensemble size: min(rank^2, max(AUTO_ENSEMBLE_FLOOR, 2 rank)) members
AUTO_ENSEMBLE_FLOOR = 16

# raw (D, m) member columns -> (value, dF/d conj(raw))
MemberCost = Callable[[np.ndarray], tuple[float, np.ndarray]]


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


def concurrence_factors(x: np.ndarray, gradient: bool = False):
    """Two-qubit concurrence of rho = X X^dagger for a (N, 4, k) stack of X.

    C = max(0, s1 - s2 - s3 - s4) from the singular values s of the complex
    symmetric tau = X^T (Y x Y) X, which are the square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y); X is not normalized, so C
    scales with tr rho.  With gradient=True, also returns the Wirtinger
    gradient dC/d conj(X) = (Y x Y) conj(X) (W + W^T) / 2 with
    W = U diag(1, -1, ..., -1) V^dagger from the same SVD tau = U S V^dagger,
    and the zero subgradient where C clips to 0.
    """
    flip = x[..., ::-1, :] * _YY_SIGNS[:, None]                 # (Y x Y) X
    tau = np.swapaxes(x, -1, -2) @ flip
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


def _concurrence_stack(mats: np.ndarray) -> np.ndarray:
    """Concurrences of a (N, 4, 4) stack of two-qubit density operators.

    The operators pass DensityMatrix's checks (`density_spectra`), and the
    factor X = V sqrt(w) of each one's eigh goes to `concurrence_factors`.
    """
    w, v = density_spectra(mats, vectors=True)
    return concurrence_factors(v * np.sqrt(np.maximum(w, 0.0))[..., None, :])


def eof_wootters_stack(mats: np.ndarray) -> np.ndarray:
    """Exact two-qubit EoF of each operator in a (N, 4, 4) stack of density matrices."""
    return _eof_from_concurrence(_concurrence_stack(mats))[0]


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.dims != (2, 2):
        raise ValueError(f"two-qubit closed form needs dims (2, 2), got {rho.dims}")


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit concurrence, from the factor X = V sqrt(w) of rho's eigh."""
    _require_two_qubits(rho)
    return float(_concurrence_stack(rho.mat[None])[0])


def eof_wootters_2q(rho: DensityMatrix) -> float:
    """Exact two-qubit EoF via the concurrence closed form."""
    _require_two_qubits(rho)
    return float(eof_wootters_stack(rho.mat[None])[0])


def entropy_value_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
    """sum_i p_i S(psi_i) over a (m, d_left, d_right) stack, and its gradient.

    Member i is X_i = sqrt(p_i) psi_i reshaped across a cut.  With
    M = X X^dagger and p = tr M, the term -tr M log2(M/p) has the Wirtinger
    gradient -log2(M/p) X, taken here from one SVD.  Terms the value drops
    (mu <= EIG_FLOOR, or p <= 1e-15) get zero weight in the gradient too.
    """
    left, s, right = np.linalg.svd(x, full_matrices=False)
    lam2 = s * s
    p = lam2.sum(axis=-1)
    p_safe = np.where(p > 1e-15, p, 1.0)
    mu = lam2 / p_safe[:, None]
    mask = (mu > EIG_FLOOR) & (p[:, None] > 1e-15)
    log_mu = np.log2(np.where(mask, mu, 1.0))
    value = float(np.where(mask, -lam2 * log_mu, 0.0).sum())
    return value, -(left * np.where(mask, s * log_mu, 0.0)[:, None, :]) @ right


def wootters_value_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
    """sum_i p_i E_f(rho_i) over a (m, 4, k) stack, and its gradient.

    Member i is a factor X_i of its unnormalized two-qubit reduction
    rho_i = X_i X_i^dagger with p = tr rho_i.  The term f = p E(c) with
    c = C/p has the Wirtinger gradient E(c) X + E'(c) (dC/d conj(X) - c X),
    which is zero wherever C clips to 0.  Members with p <= 1e-15 are given
    c = 0, hence zero value and gradient.
    """
    conc, dconc = concurrence_factors(x, gradient=True)
    p = np.einsum("nij,nij->n", x.conj(), x).real
    live = p > 1e-15
    c = np.where(live, conc / np.where(live, p, 1.0), 0.0)
    e, de = _eof_from_concurrence(c)
    grad = e[:, None, None] * x + de[:, None, None] * (dconc - c[:, None, None] * x)
    return float((p * e).sum()), grad


def cut_member_cost(dims: Sequence[int], cut, value_grad=entropy_value_grad) -> MemberCost:
    """Member cost of `value_grad` applied to each member reshaped across the cut.

    The returned cost maps the raw (D, m) member columns sqrt(p_i) psi_i, in
    the native subsystem order of `dims`, to (value, dF/d conj(raw)).
    """
    perm, d_left, d_right = cut_permutation(dims, cut)

    def cost(raw: np.ndarray) -> tuple[float, np.ndarray]:
        m = raw.shape[1]
        x = raw[perm, :].reshape(d_left, d_right, m).transpose(2, 0, 1)
        value, g = value_grad(x)
        g_raw = np.empty_like(raw)
        g_raw[perm, :] = g.reshape(m, -1).T
        return value, g_raw

    return cost


@dataclass
class EofOptions:
    """Knobs for the decomposition search.

    ensemble_size "auto" resolves to min(rank^2, max(16, 2 rank)): all of
    rank^2 up to rank 4, 16 from rank 4 to 8, and 2 rank above that, so the
    search can always add members to the eigen-ensemble once rank > 1.
    No option selects how gradients are taken: every member cost supplies
    its own exact gradient (see minimize_over_decompositions).
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
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if self.ensemble_size != "auto":
            self.ensemble_size = int(self.ensemble_size)
            if self.ensemble_size < 1:
                raise ValueError("ensemble_size must be >= 1 or 'auto'")


@dataclass
class EofEstimate:
    """Outcome of a minimization run.

    `value` is the smallest objective seen; nonconvergence is reported in
    `converged`, never raised.
    """

    value: float
    best_ensemble: Ensemble
    converged: bool
    restarts_used: int
    iterations: int
    restart_values: tuple[float, ...] = field(default=())


def _pack(y: np.ndarray) -> np.ndarray:
    """[Re Y, Im Y] of an m x rank complex Y: the search's parameter vector."""
    return np.concatenate([y.real.ravel(), y.imag.ravel()])


class _DecompositionObjective:
    """sum_i p_i cost(psi_i) over the polar chart, with its exact gradient.

    A parameter vector x = _pack(Y) holds an m x rank complex Y, with m read
    from len(x).  Its polar factor V = Y S^{-1/2}, S = Y^dagger Y, is the
    isometry; every m x rank isometry is the polar factor of itself.  The
    member columns are raw = basis V^T (column i is sqrt(p_i) psi_i), and
    the member cost returns the value with the Wirtinger derivative
    G_raw = dF/d conj(raw), which is chained back through raw -> V -> Y -> x.
    """

    def __init__(self, rho: DensityMatrix, cut, member_cost: MemberCost | None = None):
        lam, vecs = support_decomposition(rho)
        self.rank = int(lam.size)
        self.basis = vecs * np.sqrt(lam)
        self.cost = member_cost if member_cost is not None else cut_member_cost(rho.dims, cut)

    def _polar(self, x: np.ndarray):
        """Y, S^{-1/2} and (sqrt(s), W) from S = Y^dagger Y = W diag(s) W^dagger."""
        re, im = x.reshape(2, -1, self.rank)
        y = re + 1j * im
        s, w = np.linalg.eigh(y.conj().T @ y)
        root = np.sqrt(s)
        return y, (w / root) @ w.conj().T, root, w

    def isometry(self, x: np.ndarray) -> np.ndarray:
        """The polar factor of Y(x), which feeds `hjw_ensemble`."""
        y, inv_root, _, _ = self._polar(x)
        return y @ inv_root

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective value and its gradient at the parameter vector x."""
        y, inv_root, root, w = self._polar(x)
        value, g_raw = self.cost(self.basis @ (y @ inv_root).T)    # (D, m) columns
        g_v = (self.basis.conj().T @ g_raw).T
        # divided differences of s^{-1/2}, written without a difference
        # quotient, so equal or nearly equal s stay exact
        gamma = -1.0 / (np.outer(root, root) * (root[:, None] + root[None, :]))
        wh = w.conj().T
        n = w @ (gamma * (wh @ y.conj().T @ g_v @ w)) @ wh
        g_y = g_v @ inv_root + y @ (n + n.conj().T)
        return value, 2.0 * _pack(g_y)


def _params_for_ensemble(rho: DensityMatrix, e: Ensemble, m: int) -> np.ndarray:
    """Parameter vector whose polar factor reproduces the given decomposition.

    The isometry of e, padded with zero rows to m members, is its own polar factor.
    """
    u = isometry_for_ensemble(rho, e)
    return _pack(np.pad(u, ((0, m - u.shape[0]), (0, 0))))


def resolve_ensemble_size(rank: int, requested: int | str, warm_sizes: Sequence[int] = ()) -> int:
    """Apply the auto rule and the hard floors (rank, warm-start member count)."""
    if requested == "auto":
        m = min(rank * rank, max(AUTO_ENSEMBLE_FLOOR, 2 * rank))
    else:
        m = int(requested)
        if m < rank:
            raise ValueError(f"ensemble_size {m} is below the state rank {rank}")
    return max(m, rank, *(int(s) for s in warm_sizes), 1)


def minimize_over_decompositions(
    rho: DensityMatrix,
    cut,
    opts: EofOptions | None = None,
    member_cost: MemberCost | None = None,
    warm_starts: Sequence[Ensemble] = (),
) -> EofEstimate:
    """Minimize sum_i p_i cost(psi_i) over decompositions of rho.

    member_cost None means the default cost, entanglement entropy across
    `cut` (`cut_member_cost(rho.dims, cut)`).  A custom member_cost receives
    the raw (D, m) member columns v_i = sqrt(p_i) psi_i in the state's
    native subsystem order and returns the value sum_i p_i c(psi_i) with
    its Wirtinger gradient dF/d conj(v), a (D, m) array; `cut_member_cost`
    builds such costs from `entropy_value_grad` and `wootters_value_grad`.
    The gradient is chained through the polar factor to the parameters, so one
    L-BFGS-B evaluation is one objective call, which calls the member cost
    once.
    """
    opts = opts if opts is not None else EofOptions()
    obj = _DecompositionObjective(rho, tuple(cut), member_cost)
    rank = obj.rank
    m = resolve_ensemble_size(rank, opts.ensemble_size, [len(e) for e in warm_starts])

    starts = [_pack(np.eye(m, rank))]
    starts += [_params_for_ensemble(rho, e, m) for e in warm_starts]
    n_runs = max(opts.restarts, len(starts))
    for k in range(len(starts), n_runs):
        rng = np.random.default_rng([opts.seed, k])
        starts.append(rng.standard_normal(2 * m * rank))

    best_value = math.inf
    best_x = starts[0]
    best_run = (False, 0)
    restart_values: list[float] = []

    for x0 in starts:
        run_best = [math.inf, x0]

        def fun_and_grad(x, _run_best=run_best):
            value, grad = obj(x)
            if value < _run_best[0]:
                _run_best[0] = value
                _run_best[1] = x.copy()
            return value, grad

        res = scipy.optimize.minimize(
            fun_and_grad,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": opts.max_iterations,
                "ftol": opts.convergence_tol,
                "gtol": 1e-6,
            },
        )
        value, x_best_run = run_best
        restart_values.append(float(value))
        if value < best_value:
            best_value = float(value)
            best_x = x_best_run
            best_run = (bool(res.success), int(res.nit))

    ensemble = hjw_ensemble(rho, obj.isometry(best_x))
    return EofEstimate(
        value=float(best_value),
        best_ensemble=ensemble,
        converged=best_run[0],
        restarts_used=n_runs,
        iterations=best_run[1],
        restart_values=tuple(restart_values),
    )


def eof_minimize(
    rho: DensityMatrix,
    cut,
    opts: EofOptions | None = None,
    warm_starts: Sequence[Ensemble] = (),
) -> EofEstimate:
    """Numerical EoF upper bound across the cut via the decomposition search."""
    return minimize_over_decompositions(rho, cut, opts, None, warm_starts)


def eof_stack(mats: np.ndarray, dims: Sequence[int], opts: EofOptions | None = None,
              warm_starts: Sequence[Ensemble] = ()) -> tuple[np.ndarray, bool]:
    """E_f of each two-subsystem operator in a (N, D, D) stack, and whether it is exact.

    At dims (2, 2) the closed form covers the whole stack and is exact;
    otherwise each value is the upper bound of its own decomposition search,
    and every search tries the warm starts.
    """
    dims = tuple(dims)
    if dims == (2, 2):
        return eof_wootters_stack(mats), True
    values = [eof_minimize(DensityMatrix(dims, m), (0,), opts, warm_starts).value
              for m in mats]
    return np.array(values), False
