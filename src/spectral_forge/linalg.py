"""Dense complex linear algebra kernels.

Everything in this module works on small dense matrices held in memory.
Eigendecompositions are computed with cyclic complex Jacobi rotations,
normal matrices are handled by splitting into commuting Hermitian and
skew parts, and positive definite systems are solved by an in-house
Cholesky factorization.  numpy is used for array arithmetic only; no
LAPACK eigen or factorization routine is called anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteValue,
    NotHermitian,
    NotNormal,
    NotPositiveDefinite,
)

__all__ = [
    "Tolerances",
    "OperatorMatrix",
    "EigenSystem",
    "DEFAULT_TOLERANCES",
    "adjoint",
    "is_hermitian",
    "is_normal",
    "frobenius",
    "op_norm_2",
    "hermitian_eig",
    "normal_eig",
    "hpd_solve",
    "cluster_points",
]

# Rotation budget for one Jacobi eigendecomposition, in units of n^2.
JACOBI_BUDGET_FACTOR = 30

# Smallest normal double: rotations on pivots below this are pure noise.
_TINY_PIVOT = float(np.finfo(np.float64).tiny)

# Machine epsilon of float64, the scale of the Jacobi stopping test.
_EPS = float(np.finfo(np.float64).eps)

# Largest entry that norms and Gram products take unscaled: 2^128
# leaves their sums of squares far inside the float range.
_SCALE_LIMIT = 2.0 ** 128


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle shared by every numerical routine.

    Parameters
    ----------
    rtol : float or None
        Relative tolerance.  When None it defaults to ``1e-10 * n`` at
        the point of use, where n is the matrix dimension.
    atol : float
        Absolute floor, also the Jacobi convergence target scale.
    cluster : float or None
        Eigenvalue clustering radius.  When None it defaults to
        ``1e-8 * (1 + s)`` where s estimates the spectral scale.
    """

    rtol: float | None = None
    atol: float = 1e-12
    cluster: float | None = None

    def __post_init__(self):
        for name in ("rtol", "atol", "cluster"):
            value = getattr(self, name)
            if value is None:
                continue
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")

    def rel(self, dim: int) -> float:
        """Relative tolerance for matrices on C^dim."""
        return self.rtol if self.rtol is not None else 1e-10 * dim

    def cluster_radius(self, scale: float) -> float:
        """Clustering radius for eigenvalues of magnitude up to ``scale``."""
        return self.cluster if self.cluster is not None else 1e-8 * (1.0 + scale)


DEFAULT_TOLERANCES = Tolerances()


def _resolve(tol: Tolerances | None) -> Tolerances:
    return DEFAULT_TOLERANCES if tol is None else tol


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Square complex matrix acting on C^n.

    The wrapped array is copied on construction, validated to be square
    with finite entries, and frozen.  All operations return new values,
    so instances can be shared freely between threads.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=np.complex128, copy=True, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise DimensionMismatch("matrices must have dimension at least 1")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise NonFiniteValue("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "OperatorMatrix":
        return cls(np.eye(dim, dtype=np.complex128))

    @classmethod
    def zeros(cls, dim: int) -> "OperatorMatrix":
        return cls(np.zeros((dim, dim), dtype=np.complex128))

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.array.conj().T)

    def _check_dim(self, other: "OperatorMatrix"):
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"dimension mismatch: {self.dim} versus {other.dim}"
            )

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_dim(other)
        return OperatorMatrix(self.array @ other.array)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_dim(other)
        return OperatorMatrix(self.array + other.array)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_dim(other)
        return OperatorMatrix(self.array - other.array)

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(self.array * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(-self.array)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Unitary diagonalization ``M = U diag(eigenvalues) U*``.

    Eigenvalues are sorted lexicographically by (real, imaginary) part
    and each eigenvector's largest-magnitude component is made real and
    positive, so equal inputs produce identical systems.
    """

    unitary: OperatorMatrix
    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=np.complex128, copy=True)
        if vals.ndim != 1 or vals.shape[0] != self.unitary.dim:
            raise DimensionMismatch("eigenvalue count must match matrix dimension")
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def dim(self) -> int:
        return self.unitary.dim


def adjoint(m: OperatorMatrix) -> OperatorMatrix:
    """Conjugate transpose of ``m``."""
    return m.adjoint()


def _power_of_two_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(a 2^-e, e)``, with e = 0 unless an entry passes ``_SCALE_LIMIT``.

    Norms and Gram products square the entries, which overflows past
    about 1e154; a power of two scales without rounding, and the Jacobi
    rotations commute with it, so only the exponent is carried.
    """
    peak = float(np.max(np.abs(a.view(np.float64))))
    if peak <= _SCALE_LIMIT:
        return a, 0
    e = int(np.frexp(peak)[1])
    return np.ldexp(a.view(np.float64), -e).view(np.complex128), e


def frobenius(m: OperatorMatrix) -> float:
    """Frobenius norm of ``m``."""
    a, e = _power_of_two_scaled(m.array)
    return float(np.ldexp(np.linalg.norm(a), e))


def is_hermitian(m: OperatorMatrix, tol: Tolerances | None = None) -> bool:
    """True when ``||M - M*||_F <= rtol * ||M||_F + atol``."""
    tol = _resolve(tol)
    a = m.array
    defect = np.linalg.norm(a - a.conj().T)
    return bool(defect <= tol.rel(m.dim) * np.linalg.norm(a) + tol.atol)


def is_normal(m: OperatorMatrix, tol: Tolerances | None = None) -> bool:
    """True when ``||M*M - MM*||_F <= rtol * ||M||_F^2 + atol``."""
    tol = _resolve(tol)
    a = m.array
    ah = a.conj().T
    defect = np.linalg.norm(ah @ a - a @ ah)
    fro = np.linalg.norm(a)
    return bool(defect <= tol.rel(m.dim) * fro * fro + tol.atol)


def _off_diagonal_norm(w: np.ndarray) -> float:
    mask = ~np.eye(w.shape[0], dtype=bool)
    return float(np.linalg.norm(w[mask]))


def _relatively_diagonal(w: np.ndarray) -> bool:
    """Demmel-Veselic test: every ``|w_pq| <= eps * sqrt(|w_pp w_qq|)``.

    Entries at or below ``_TINY_PIVOT`` also pass, as rotating them is
    pure noise.  Once the test holds, a further rotation moves each
    eigenvalue by less than eps relative to itself.
    """
    root = np.sqrt(np.abs(w.diagonal().real))
    bound = np.maximum(_EPS * np.outer(root, root), _TINY_PIVOT)
    np.fill_diagonal(bound, np.inf)  # the diagonal is not tested
    return bool(np.all(np.abs(w) <= bound))


@lru_cache(maxsize=None)
def _round_robin_rounds(n: int) -> tuple:
    """Pairings of a cyclic Jacobi sweep, grouped into disjoint rounds.

    Uses the circle method: with a possible bye slot appended, index 0 is
    held fixed while the remaining indices rotate, so each round pairs
    disjoint (p, q) and one sweep visits every pair exactly once.
    """
    if n < 2:
        return tuple()
    m = n if n % 2 == 0 else n + 1
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = seats[i], seats[m - 1 - i]
            if a >= n or b >= n:
                continue
            ps.append(min(a, b))
            qs.append(max(a, b))
        rounds.append((np.array(ps, dtype=np.intp), np.array(qs, dtype=np.intp)))
        seats = [seats[0]] + [seats[-1]] + seats[1:-1]
    return tuple(rounds)


def _jacobi_hermitian(matrix: np.ndarray, atol: float,
                      rotation_budget: int | None = None):
    """Diagonalize the Hermitian part of an array by cyclic Jacobi rotations.

    The solve works on ``W = (M + M*)/2`` in complex128, so callers pass
    their raw arrays; the projection leaves a matrix that is Hermitian
    to the bit unchanged.  Its stopping target is ``atol (1 + ||W||_F)``.
    Rotations are applied in round-robin order; the pairs inside one
    round are disjoint, so their rotations commute and a whole round is
    applied with vectorized column and row updates.  Sweeps stop at the
    Demmel-Veselic point, where every off-diagonal entry is below eps
    relative to its diagonal pair (Demmel & Veselic, "Jacobi's method is
    more accurate than QR", SIAM J. Matrix Anal. Appl. 13(4), 1992);
    the target then decides between success and NoConvergence.  A sweep
    that fails to shrink the off-diagonal mass, or the rotation budget
    (default ``30 n^2``), also ends the solve, with NoConvergence when
    the mass still exceeds the target.

    Returns ``(eigenvalues, vectors)`` unsorted.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    w = (m + m.conj().T) / 2.0
    off_target = atol * (1.0 + np.linalg.norm(w))
    n = w.shape[0]
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return w.diagonal().real.copy(), v
    budget = JACOBI_BUDGET_FACTOR * n * n if rotation_budget is None else rotation_budget
    rotations = 0
    prev_off = np.inf
    while True:
        off = _off_diagonal_norm(w)
        # Past the relative test a rotation changes no eigenvalue beyond
        # rounding and an eigenvector by about eps |lambda| / gap, so
        # further sweeps buy clustered eigenvectors nothing.
        reason = None
        if _relatively_diagonal(w):
            reason = "sweeps reached the relative rounding floor"
        elif off >= prev_off:
            reason = "sweeps stalled"
        elif rotations >= budget:
            reason = f"sweep budget of {budget} rotations exhausted"
        if reason is not None:
            if off <= off_target:
                break
            raise NoConvergence(
                f"Jacobi {reason} with off-diagonal mass {off:.3e} "
                f"above target {off_target:.3e}"
            )
        prev_off = off
        skip_threshold = off / (4.0 * n)
        for p_all, q_all in _round_robin_rounds(n):
            beta = w[p_all, q_all]
            # denormal pivots are noise, and dividing by them overflows
            active = np.abs(beta) > max(skip_threshold, _TINY_PIVOT)
            if not active.any():
                continue
            p = p_all[active]
            q = q_all[active]
            beta = beta[active]
            absb = np.abs(beta)
            alpha = w[p, p].real
            gamma = w[q, q].real
            # 2x2 rotation: phase u maps the pivot to a real symmetric
            # block, then the classical tangent formula zeroes it.  The
            # tangent is computed without dividing by |beta|, so pivots
            # of any magnitude stay inside the float range.
            u = beta.conj() / absb
            delta = (gamma - alpha) / 2.0
            sign = np.where(delta >= 0.0, 1.0, -1.0)
            t = sign * absb / (np.abs(delta) + np.hypot(delta, absb))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            su = s * u
            cu = c * u
            wp = w[:, p]
            wq = w[:, q]
            w[:, p] = wp * c - wq * su
            w[:, q] = wp * s + wq * cu
            wp = w[p, :]
            wq = w[q, :]
            w[p, :] = wp * c[:, None] - wq * (s * u.conj())[:, None]
            w[q, :] = wp * s[:, None] + wq * (c * u.conj())[:, None]
            w[p, q] = 0.0
            w[q, p] = 0.0
            w[p, p] = alpha - t * absb
            w[q, q] = gamma + t * absb
            vp = v[:, p]
            vq = v[:, q]
            v[:, p] = vp * c - vq * su
            v[:, q] = vp * s + vq * cu
            rotations += int(p.size)
    return w.diagonal().real.copy(), v


def _eigensystem(vals: np.ndarray, vecs: np.ndarray) -> EigenSystem:
    """EigenSystem in (real, imaginary) order, phases fixed.

    Each eigenvector is scaled so its largest-magnitude component is
    real positive.
    """
    vals = np.asarray(vals, dtype=np.complex128)
    order = np.lexsort((vals.imag, vals.real))
    vecs = vecs[:, order]
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return EigenSystem(OperatorMatrix(vecs * (lead.conj() / np.abs(lead))),
                       vals[order])


def hermitian_eig(m: OperatorMatrix, tol: Tolerances | None = None) -> EigenSystem:
    """Diagonalize a Hermitian matrix.

    Parameters
    ----------
    m : OperatorMatrix
        Hermitian input; checked first, NotHermitian on failure.
    tol : Tolerances, optional
        Convergence target is ``atol * (1 + ||M||_F)``.

    Returns
    -------
    EigenSystem
        Real eigenvalues (imaginary parts zeroed) in ascending order.
    """
    tol = _resolve(tol)
    if not is_hermitian(m, tol):
        raise NotHermitian("hermitian_eig requires a Hermitian matrix")
    return _eigensystem(*_jacobi_hermitian(m.array, tol.atol))


def cluster_points(points: np.ndarray, radius: float) -> list[np.ndarray]:
    """Group points whose union-find chains have gaps at most ``radius``.

    Two points join the same cluster whenever some chain of pairwise
    distances <= radius connects them.  Returns index arrays ordered by
    the lexicographic (real, imaginary) position of each cluster mean.
    """
    pts = np.asarray(points, dtype=np.complex128)
    k = pts.shape[0]
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if k > 1:
        gaps = np.abs(pts[:, None] - pts[None, :])
        for i, j in np.argwhere(gaps <= radius):
            if i < j:
                ri, rj = find(int(i)), find(int(j))
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    clusters = [np.array(sorted(ix), dtype=np.intp) for ix in groups.values()]
    means = [pts[c].mean() for c in clusters]
    order = sorted(
        range(len(clusters)),
        key=lambda g: (means[g].real, means[g].imag, int(clusters[g][0])),
    )
    return [clusters[g] for g in order]


def normal_eig(m: OperatorMatrix, tol: Tolerances | None = None) -> EigenSystem:
    """Diagonalize a normal matrix through its Hermitian/skew split.

    Writes ``M = H + iK`` with ``H = (M + M*)/2`` and ``K = (M - M*)/(2i)``,
    which commute exactly when M is normal.  H is diagonalized first;
    K is then diagonalized inside each cluster of nearby H eigenvalues,
    and the joint eigenvalue of a vector is its H Rayleigh quotient plus
    i times its K eigenvalue.

    Raises NotNormal when the commutator test fails and NoConvergence
    when a Jacobi stage stalls.
    """
    tol = _resolve(tol)
    if not is_normal(m, tol):
        raise NotNormal("normal_eig requires a normal matrix")
    a = m.array
    n = m.dim
    h_vals, h_vecs = _jacobi_hermitian(a, tol.atol)  # H = (M + M*)/2
    order = np.argsort(h_vals, kind="stable")
    h_vals = h_vals[order]
    h_vecs = h_vecs[:, order]
    radius = tol.cluster_radius(float(np.max(np.abs(h_vals))))
    k = (a - a.conj().T) / 2.0j
    vals = np.empty(n, dtype=np.complex128)
    vecs = np.empty((n, n), dtype=np.complex128)
    col = 0
    for cluster in cluster_points(h_vals.astype(np.complex128), radius):
        basis = h_vecs[:, cluster]
        k_vals, k_vecs = _jacobi_hermitian(basis.conj().T @ k @ basis, tol.atol)
        cols = slice(col, col + cluster.size)
        # Rayleigh quotient of H per joint vector; within a cluster the
        # weights are |k_vecs|^2 column sums against the member h values.
        vals[cols] = h_vals[cluster] @ np.abs(k_vecs) ** 2 + 1.0j * k_vals
        vecs[:, cols] = basis @ k_vecs
        col += cluster.size
    return _eigensystem(vals, vecs)


def op_norm_2(m: OperatorMatrix, tol: Tolerances | None = None) -> float:
    """Spectral norm, the largest singular value.

    Hermitian inputs use their own eigenvalues; general inputs go through
    ``_norm_in_frame`` in the identity frame.  Both paths run through the
    Jacobi eigensolver, on a copy scaled by a power of two when an entry
    is large enough for a norm to overflow.
    """
    tol = _resolve(tol)
    a, e = _power_of_two_scaled(m.array)
    m = OperatorMatrix(a) if e else m
    if not is_hermitian(m, tol):
        return float(np.ldexp(_norm_in_frame(m, None, tol), e))
    vals, _ = _jacobi_hermitian(m.array, tol.atol)
    return float(np.ldexp(np.max(np.abs(vals)), e))


def _norm_in_frame(m: OperatorMatrix, frame: np.ndarray | None = None,
                   tol: Tolerances | None = None) -> float:
    """Spectral norm ``sqrt(lambda_max(G* G))`` with ``G = M V``.

    Any unitary ``frame`` V gives ||M||_2, for Hermitian and general M
    alike; None stands for the identity.  When V nearly diagonalizes
    M*M, as an eigenbasis of (I + M*M)^(-1) does, the Gram matrix starts
    at rounding level off its diagonal and the Jacobi solve converges in
    a few sweeps (Henrici 1958); a poorer frame costs sweeps, not
    accuracy.
    """
    tol = _resolve(tol)
    a, e = _power_of_two_scaled(m.array)
    g = a if frame is None else a @ frame
    vals, _ = _jacobi_hermitian(g.conj().T @ g, tol.atol)
    return float(np.ldexp(np.sqrt(max(float(vals.max()), 0.0)), e))


def _cholesky_lower(matrix: np.ndarray, atol: float) -> np.ndarray:
    """Lower Cholesky factor of a Hermitian positive definite array."""
    n = matrix.shape[0]
    lower = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        pivot = matrix[j, j].real - float(np.sum(np.abs(lower[j, :j]) ** 2))
        if pivot <= atol:
            raise NotPositiveDefinite(
                f"pivot {pivot:.3e} at column {j} is not above {atol:.3e}"
            )
        ljj = np.sqrt(pivot)
        lower[j, j] = ljj
        if j + 1 < n:
            rest = matrix[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j].conj()
            lower[j + 1:, j] = rest / ljj
    return lower


def _solve_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    n = lower.shape[0]
    y = np.zeros_like(rhs)
    for i in range(n):
        y[i] = (rhs[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    return y


def _solve_upper_adjoint(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # Solves L* x = rhs with L lower triangular.
    n = lower.shape[0]
    x = np.zeros_like(rhs)
    for i in range(n - 1, -1, -1):
        x[i] = (rhs[i] - lower[i + 1:, i].conj() @ x[i + 1:]) / lower[i, i].conj()
    return x


def hpd_solve(m: OperatorMatrix, rhs: OperatorMatrix,
              tol: Tolerances | None = None) -> OperatorMatrix:
    """Solve ``M X = RHS`` for Hermitian positive definite M.

    Factors ``M = L L*`` by Cholesky elimination and applies forward and
    back substitution columnwise.  Raises NotPositiveDefinite when a
    pivot is at or below ``atol`` and NotHermitian when M fails the
    Hermitian test.
    """
    tol = _resolve(tol)
    if m.dim != rhs.dim:
        raise DimensionMismatch(
            f"matrix dimension {m.dim} does not match right-hand side {rhs.dim}"
        )
    if not is_hermitian(m, tol):
        raise NotHermitian("hpd_solve requires a Hermitian matrix")
    work = (m.array + m.array.conj().T) / 2.0
    lower = _cholesky_lower(work, tol.atol)
    y = _solve_lower(lower, np.array(rhs.array, copy=True))
    x = _solve_upper_adjoint(lower, y)
    return OperatorMatrix(x)
