"""Dense complex linear algebra kernels.

Everything in this module works on small dense matrices held in memory.
Two cyclic Jacobi kernels share one rotation and one stopping rule, and
split the problems by class.  The one-sided (Hestenes) kernel takes
every positive (semi)definite problem: it rotates the columns of M into
``M V = G`` with orthogonal columns and gives singular values s and left
singular vectors ``U = G / s``, so it solves T for its singular pair,
every spectral norm, a positive definite matrix by its own eigenpairs
(``verify`` shifts A's Hermitian part to one) and the cross blocks of a
product measure; V itself is never formed.  The two-sided kernel keeps
only the indefinite problems: Hermitian matrices (``hermitian_eig``)
and normal ones through their commuting Hermitian and skew parts
(``normal_eig``).  numpy is used for array arithmetic only; no LAPACK
eigen, singular value or factorization routine is called anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteValue,
    NotHermitian,
    NotNormal,
    ScaleLimit,
)

__all__ = [
    "Tolerances",
    "OperatorMatrix",
    "EigenSystem",
    "DEFAULT_TOLERANCES",
    "is_hermitian",
    "is_normal",
    "frobenius",
    "op_norm_2",
    "hermitian_eig",
    "normal_eig",
    "cluster_points",
]

# Rotation budget for one Jacobi eigendecomposition, in units of n^2.
JACOBI_BUDGET_FACTOR = 30

# Smallest normal double: rotations on pivots below this are pure noise.
_TINY_PIVOT = float(np.finfo(np.float64).tiny)

# Machine epsilon of float64, the scale of the Jacobi stopping test.
_EPS = float(np.finfo(np.float64).eps)

# Relative gap within which default clusters join (``_clusters``).
_CLUSTER_REL = 1e-8

# Largest block of rows or columns one two-sided Jacobi update gathers.
# Only rounds of more than 128 KB split, n > 128.  A round gathered whole
# (295 KB of columns at n = 192) costs more to allocate than to rotate:
# glibc malloc hands out blocks past 128 KB, its default mmap threshold,
# as fresh pages and returns them on free, so every update page-faults
# (n = 192: 4.2 s whole, 1.7 s in blocks; 2.1 s whole once glibc keeps
# freed memory).  Blocks under the threshold reuse freed heap memory; any
# smaller costs Python calls per block (64 KB was slower at n = 96..256).
_BLOCK_BYTES = 128 * 1024

# Largest entry that norms and Gram products take unscaled, and the
# reciprocal of the smallest peak: 2^128 leaves their sums of squares
# far inside the float range.
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
        Absolute eigenvalue clustering radius.  When None, points a and b
        join when ``|a - b| <= 1e-8 max(|a|, |b|) + 100 eps s``, s the
        largest |point|, and never past ``cluster_radius(s)``; in a
        measure of A, 100 eps max(|a|, |b|) stands for 100 eps s.
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
        """Widest gap at which points up to ``scale`` join (``_clusters``).

        ``cluster`` when set; else ``1e-8 (1 + scale)``, and a pair must
        also be within 1e-8 of its own size plus 100 eps ``scale``.
        """
        return self.cluster if self.cluster is not None else _CLUSTER_REL * (1.0 + scale)


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


def _power_of_two_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(a 2^-e, e)``, e = 0 for a peak entry of 0 or in ``[2^-128, 2^128]``.

    Norms and Gram products square the entries, which overflows past
    about 1e154 and underflows below about 1e-154; a power of two scales
    without rounding, and the Jacobi rotations commute with it, so only
    the exponent is carried.
    """
    peak = float(np.max(np.abs(a.view(np.float64)), initial=0.0))
    if peak == 0.0 or 1.0 / _SCALE_LIMIT <= peak <= _SCALE_LIMIT:
        return a, 0
    e = int(np.frexp(peak)[1])
    return np.ldexp(a.view(np.float64), -e).view(a.dtype), e


def _refuse_past_scale_limit(m: OperatorMatrix):
    """ScaleLimit past an entry of 2^128, every route's one refusal."""
    peak = float(np.max(np.abs(m.array.view(np.float64))))
    if peak > _SCALE_LIMIT:
        raise ScaleLimit(f"largest entry {peak:.3e} passes 2^128; the sums "
                         "of squares this route forms unscaled would "
                         "overflow")


def _norm(x: np.ndarray) -> float:
    """2-norm of ``x``, whatever the range of its entries' squares."""
    a, e = _power_of_two_scaled(x)
    return float(np.ldexp(np.linalg.norm(a), e))


def frobenius(m: OperatorMatrix) -> float:
    """Frobenius norm of ``m``."""
    return _norm(m.array)


def is_hermitian(m: OperatorMatrix, tol: Tolerances | None = None) -> bool:
    """True when ``||M - M*||_F <= rel ||M||_F``, rel = max(rtol, n eps).

    Both sides scale with M, so s M gets the verdict of M for every
    s > 0.  The floor n eps is the rounding level of the products this
    test and ``is_normal`` form: a tiny rtol tightens the residual checks
    that share it without calling every computed matrix non-normal.
    """
    tol = _resolve(tol)
    a, _ = _power_of_two_scaled(m.array)
    defect = np.linalg.norm(a - a.conj().T)
    return bool(defect <= max(tol.rel(m.dim), m.dim * _EPS) * np.linalg.norm(a))


def is_normal(m: OperatorMatrix, tol: Tolerances | None = None) -> bool:
    """True when ``||M*M - MM*||_F <= rel ||M||_F^2``, rel as in ``is_hermitian``."""
    tol = _resolve(tol)
    a, _ = _power_of_two_scaled(m.array)
    ah = a.conj().T
    defect = np.linalg.norm(ah @ a - a @ ah)
    fro = np.linalg.norm(a)
    return bool(defect <= max(tol.rel(m.dim), m.dim * _EPS) * fro * fro)


def _off_diagonal_norm(w: np.ndarray) -> float:
    mask = ~np.eye(w.shape[0], dtype=bool)
    return _norm(w[mask])


def _sweep_head(w: np.ndarray, level: float, prev_off: float, rotations: int,
                budget: int, off_target: float) -> tuple[float, float] | None:
    """Stopping rule of both Jacobi kernels, run on Hermitian ``w``.

    Sweeps stop once every ``|w_pq| <= level sqrt(|w_pp w_qq|)`` or
    ``_TINY_PIVOT`` (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4),
    1992: at level eps a further rotation moves no eigenvalue by more
    than eps relative to itself), when a sweep fails to shrink the
    off-diagonal mass, or when the budget is spent.  While sweeps go on
    returns ``(off, refused)``: the off-diagonal mass and the mass of
    the entries above that floor.  Returns None when they stop at or
    below ``off_target``; stopping above it raises NoConvergence.
    """
    off = _off_diagonal_norm(w)
    root = np.sqrt(np.abs(w.diagonal().real))
    bound = np.maximum(level * np.outer(root, root), _TINY_PIVOT)
    np.fill_diagonal(bound, np.inf)  # the diagonal is not tested
    mag = np.abs(w)
    if np.all(mag <= bound):
        reason = "sweeps reached the relative rounding floor"
    elif off >= prev_off:
        reason = "sweeps stalled"
    elif rotations >= budget:
        reason = f"sweep budget of {budget} rotations exhausted"
    else:
        return off, _norm(mag[mag > bound])
    if off <= off_target:
        return None
    raise NoConvergence(
        f"Jacobi {reason} with off-diagonal mass {off:.3e} "
        f"above target {off_target:.3e}"
    )


def _rotation(alpha: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Rotations zeroing the pivots of blocks ``[[alpha, beta], [beta*, gamma]]``.

    Phase u maps each pivot to a real symmetric block, then the classical
    tangent formula, which never divides by |beta|, zeroes it.  Returns
    ``(shift, c, s, u)``: alpha becomes alpha - shift, gamma becomes
    gamma + shift, and vectors ``(x_p, x_q)`` become
    ``(c x_p - s u x_q, s x_p + c u x_q)``.
    """
    absb = np.abs(beta)
    u = beta.conj() / absb
    delta = (gamma - alpha) / 2.0
    sign = np.where(delta >= 0.0, 1.0, -1.0)
    t = sign * absb / (np.abs(delta) + np.hypot(delta, absb))
    c = 1.0 / np.sqrt(1.0 + t * t)
    return t * absb, c, t * c, u


def _rotate_rows(x: np.ndarray, p, q, c, s, su, cu):
    """Rows ``(x_p, x_q)`` to ``(c x_p - su x_q, s x_p + cu x_q)``, in place.

    The gathered copies of the rows are updated in place: four arrays of
    their size per update, not the eight the plain expressions take.
    """
    xp = x[p]
    xq = x[q]
    tp = xq * su[:, None]
    tq = xp * s[:, None]
    xp *= c[:, None]
    xp -= tp
    xq *= cu[:, None]
    xq += tq
    x[p] = xp
    x[q] = xq


@lru_cache(maxsize=None)
def _round_robin_rounds(n: int) -> tuple:
    """Pairings of a cyclic Jacobi sweep, grouped into disjoint rounds.

    Uses the circle method over m seats, n rounded up to even with a bye
    seat: seat 0 holds index 0 and seat i >= 1 of round r holds
    ``1 + (i - 1 - r) mod (m - 1)``.  Seat i plays seat m - 1 - i, and
    pairs with the bye are dropped, so each round pairs disjoint (p, q)
    and one sweep visits every pair exactly once.
    """
    if n < 2:
        return tuple()
    m = n + n % 2
    r = np.arange(m - 1, dtype=np.intp)[:, None]
    i = np.arange(m, dtype=np.intp)
    seats = np.where(i == 0, 0, 1 + (i - 1 - r) % (m - 1))
    a = seats[:, :m // 2]
    b = seats[:, ::-1][:, :m // 2]
    p = np.minimum(a, b)
    q = np.maximum(a, b)
    keep = q < n
    return tuple((p[k][keep[k]], q[k][keep[k]]) for k in range(m - 1))


def _jacobi_hermitian(matrix: np.ndarray, atol: float):
    """Diagonalize the Hermitian part of an array by cyclic Jacobi rotations.

    The solve works on ``W = (M + M*)/2`` in complex128, so callers pass
    their raw arrays; the projection leaves a matrix that is Hermitian
    to the bit unchanged.  Rotations are applied in round-robin order;
    the pairs inside one round are disjoint, so their rotations commute
    and a round is applied in place, a block of pairs at a time, each
    block's gathered rows and columns at most ``_BLOCK_BYTES``.
    ``_sweep_head`` decides at level eps, against the target
    ``atol (1 + ||W||_F)`` and the rotation budget ``30 n^2``.  W is
    scaled by a power of two first when its largest entry lies outside
    ``[2^-128, 2^128]``: below about 1e-154 the squares in the norms
    underflow, and an off-diagonal mass that reads 0 would stop the
    sweeps as stalled after one sweep.  The scale is exact and commutes
    with the rotations, so only the eigenvalues and the target carry it.

    A pivot turns when ``|w_pq| > max(eps sqrt(|w_pp w_qq|), t, tiny)``.
    The first term is the stop test's own floor.  The threshold is
    ``t = r (r / ||W||_F) / (4n)``, where r is the mass of the
    off-diagonal entries above that floor, which ``_sweep_head`` returns:
    t falls with r^2, so the sweeps converge quadratically; r <= ||W||_F,
    so it cannot overflow, and ``||W||_F >= 2^-128`` once any entry is
    refused; and the largest of those entries passes it, so each sweep
    turns a pivot the stop test refuses.  (Taken from the whole
    off-diagonal mass, t could sit above every refused pivot of a graded
    matrix whose mass is in accepted ones, and the sweeps would stall.)

    Returns ``(eigenvalues, vectors)`` unsorted.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    w, e = _power_of_two_scaled((m + m.conj().T) / 2.0)
    fro = float(np.linalg.norm(w))
    off_target = float(np.ldexp(atol * (1.0 + np.ldexp(fro, e)), -e))
    n = w.shape[0]
    vt = np.eye(n, dtype=np.complex128)  # rows are eigenvectors
    width = max(1, _BLOCK_BYTES // (16 * n))  # pairs per block
    budget = JACOBI_BUDGET_FACTOR * n * n
    rotations = 0
    prev_off = np.inf
    while True:
        head = _sweep_head(w, _EPS, prev_off, rotations, budget, off_target)
        if head is None:
            break
        prev_off, r = head
        # denormal pivots are noise, and dividing by them overflows
        threshold = max(r * (r / fro) / (4.0 * n), _TINY_PIVOT)
        for p_all, q_all in _round_robin_rounds(n):
            beta = w[p_all, q_all]
            alpha = w[p_all, p_all].real
            gamma = w[q_all, q_all].real
            floor = _EPS * (np.sqrt(np.abs(alpha)) * np.sqrt(np.abs(gamma)))
            active = np.abs(beta) > np.maximum(floor, threshold)
            if not active.any():
                continue
            p = p_all[active]
            q = q_all[active]
            alpha = alpha[active]
            gamma = gamma[active]
            shift, c, s, u = _rotation(alpha, gamma, beta[active])
            su = s * u
            cu = c * u
            for lo in range(0, p.size, width):
                b = slice(lo, lo + width)
                pb, qb, cb, sb = p[b], q[b], c[b], s[b]
                _rotate_rows(w.T, pb, qb, cb, sb, su[b], cu[b])  # columns
                _rotate_rows(w, pb, qb, cb, sb, su[b].conj(), cu[b].conj())
                _rotate_rows(vt, pb, qb, cb, sb, su[b], cu[b])
            w[p, q] = 0.0
            w[q, p] = 0.0
            w[p, p] = alpha - shift
            w[q, q] = gamma + shift
            rotations += int(p.size)
    return np.ldexp(w.diagonal().real, e), vt.T


def _jacobi_one_sided(matrix: np.ndarray, atol: float):
    """Singular values and rotated columns by one-sided Jacobi.

    Hestenes' method rotates column pairs of ``G = M`` until they are
    orthogonal: ``M V = G`` with V unitary, and the column norms s of G
    are the singular values, to high relative accuracy (Demmel & Veselic
    1992; Drmac & Veselic, SIAM J. Matrix Anal. Appl. 29(4), 2008).  V
    is never formed, as in LAPACK's zgesvj with JOBV = 'N': the columns
    ``G / s`` are left singular vectors, orthonormal to the stop test's
    level wherever s is not rounding.  A pair turns by ``_rotation`` of
    its block of G*G, whose diagonal is updated per rotation.  G*G is
    formed per sweep for ``_sweep_head`` at level sqrt(m) eps, the
    rounding floor of an m-term inner product (as in LAPACK's zgesvj),
    which also marks a pair active; the target is
    ``atol (1 + ||M*M||_F)``, the budget ``30 n^2`` rotations.

    Returns ``(singular values, G)``, the values unsorted and in the
    order of G's columns.
    """
    # rows of gt are the columns of G: rotations move rows
    gt = np.array(np.asarray(matrix, dtype=np.complex128).T, order="C")
    n, rows = gt.shape
    level = np.sqrt(rows) * _EPS
    budget = JACOBI_BUDGET_FACTOR * n * n
    rotations = 0
    prev_off = np.inf
    gram = gt.conj() @ gt.T
    off_target = atol * (1.0 + np.linalg.norm(gram))
    while True:
        head = _sweep_head(gram, level, prev_off, rotations, budget, off_target)
        if head is None:
            break
        prev_off = head[0]
        norms = gram.diagonal().real.copy()
        for p_all, q_all in _round_robin_rounds(n):
            beta = np.einsum("ij,ij->i", gt[p_all].conj(), gt[q_all])
            alpha = norms[p_all]
            gamma = norms[q_all]
            # updated norms may dip below zero by rounding on a null column
            floor = level * np.sqrt(np.abs(alpha * gamma))
            active = np.abs(beta) > np.maximum(floor, _TINY_PIVOT)
            if not active.any():
                continue
            p = p_all[active]
            q = q_all[active]
            shift, c, s, u = _rotation(alpha[active], gamma[active], beta[active])
            su = s * u
            cu = c * u
            _rotate_rows(gt, p, q, c, s, su, cu)
            norms[p] -= shift
            norms[q] += shift
            rotations += int(p.size)
        gram = gt.conj() @ gt.T
    return np.linalg.norm(gt, axis=1), gt.T


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
        Hermitian input; checked first, ScaleLimit past an entry of 2^128
        and NotHermitian on failure.
    tol : Tolerances, optional
        Convergence target is ``atol * (1 + ||M||_F)``.

    Returns
    -------
    EigenSystem
        Real eigenvalues (imaginary parts zeroed) in ascending order.
    """
    tol = _resolve(tol)
    _refuse_past_scale_limit(m)
    if not is_hermitian(m, tol):
        raise NotHermitian("hermitian_eig requires a Hermitian matrix")
    return _eigensystem(*_jacobi_hermitian(m.array, tol.atol))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + l)`` for each start s and length l, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


def _reach(mags: np.ndarray, tol: Tolerances, own: bool = False) -> np.ndarray:
    """How far a point of each modulus in ``mags`` reaches (``_clusters``).

    ``min(R, 1e-8 |x| + 100 eps s)``, s the largest modulus and
    ``R = tol.cluster_radius(s)``, or R alone under ``tol.cluster``.
    With ``own``, for points as accurate relative to their own size as
    E_A's one-sided weights, the floor is 100 eps |x| instead.
    """
    top = float(np.max(mags, initial=0.0))
    radius = tol.cluster_radius(top)
    if tol.cluster is not None:
        return np.full(mags.shape, radius)
    floor = mags if own else top
    return np.minimum(radius, _CLUSTER_REL * mags + 100.0 * _EPS * floor)


def _clusters(points: np.ndarray, tol: Tolerances, weights=None,
              own: bool = False
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clustering rule, as arrays: ``(members, offsets, means)``.

    Points a and b join when ``|a - b| <= max(reach_a, reach_b)``, each
    reach from ``_reach(|points|, tol, own)``.

    Cluster g holds ``members[offsets[g]:offsets[g + 1]]``, ascending, and
    has mean ``means[g]`` under ``weights`` (1 each when None), which
    orders the clusters.  A pair that joins is within the widest reach
    in real part, so the candidate pairs come from a window of twice it
    over the points sorted by real part, which holds every such pair
    whatever the rounding; union-find then takes one step per pair that
    joins, and the groups, their means and their order are array passes.
    """
    pts = np.asarray(points, dtype=np.complex128)
    k = pts.shape[0]
    w = np.ones(k) if weights is None else weights
    reach = _reach(np.abs(pts), tol, own)
    radius = float(np.max(reach, initial=0.0))
    by_real = np.argsort(pts.real, kind="stable")
    real = pts.real[by_real]
    after = np.arange(1, k + 1)
    width = np.searchsorted(real, real + 2.0 * radius, side="right") - after
    a = by_real[np.repeat(after - 1, width)]
    b = by_real[_ranges(after, width)]
    near = np.abs(pts[a] - pts[b]) <= np.maximum(reach[a], reach[b])
    roots = np.arange(k)
    if near.any():
        parent = list(range(k))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in zip(a[near].tolist(), b[near].tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
        roots = np.array(parent)
        for i in np.flatnonzero(roots[roots] != roots).tolist():
            roots[i] = find(i)
    _, first, labels = np.unique(roots, return_index=True, return_inverse=True)
    mass = np.bincount(labels, w)
    sums = np.empty(mass.size, dtype=np.complex128)
    sums.real = np.bincount(labels, pts.real * w)
    sums.imag = np.bincount(labels, pts.imag * w)
    means = sums / mass
    order = np.lexsort((first, means.imag, means.real))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    members = np.argsort(rank[labels], kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(labels)[order])))
    return members, offsets, means[order]


def cluster_points(points: np.ndarray, radius: float) -> list[np.ndarray]:
    """Group points whose union-find chains have gaps at most ``radius``.

    Two points join the same cluster whenever some chain of pairwise
    distances <= radius connects them.  Returns index arrays ordered by
    the lexicographic (real, imaginary) position of each cluster mean,
    then by first index.
    """
    members, offsets, _ = _clusters(points, Tolerances(cluster=radius))
    return np.split(members, offsets[1:-1]) if members.size else []


def normal_eig(m: OperatorMatrix, tol: Tolerances | None = None) -> EigenSystem:
    """Diagonalize a normal matrix through its Hermitian/skew split.

    Writes ``M = H + iK`` with ``H = (M + M*)/2`` and ``K = (M - M*)/(2i)``,
    which commute exactly when M is normal.  H is diagonalized first and
    K is formed on H's vectors with one product.  K is then diagonalized
    inside each cluster of nearby H eigenvalues whose K block has
    off-diagonal mass above ``n eps ||M||_F``; every other vector keeps
    its K Rayleigh quotient.  The joint eigenvalue of a vector is its H
    Rayleigh quotient plus i times its K eigenvalue.

    Raises ScaleLimit past an entry of 2^128, NotNormal when the
    commutator test fails and NoConvergence when a Jacobi stage stalls.
    """
    tol = _resolve(tol)
    _refuse_past_scale_limit(m)
    if not is_normal(m, tol):
        raise NotNormal("normal_eig requires a normal matrix")
    a = m.array
    n = m.dim
    h_vals, h_vecs = _jacobi_hermitian(a, tol.atol)  # H = (M + M*)/2
    order = np.argsort(h_vals, kind="stable")
    # H's vectors are as good as eps ||M|| over H's gaps: group absolutely
    absolute = replace(tol, cluster=tol.cluster_radius(np.abs(h_vals).max()))
    members, offsets, _ = _clusters(h_vals[order], absolute)
    order = order[members]
    h_vals = h_vals[order]
    h_vecs = h_vecs[:, order]
    kh = ((a - a.conj().T) / 2.0j) @ h_vecs
    vals = h_vals + 1.0j * np.einsum("ij,ij->j", h_vecs.conj(), kh).real
    # a K block whose off-diagonal is rounding of M keeps H's vectors:
    # rotating on it would mix the H values of a chained cluster at random
    noise = n * _EPS * np.linalg.norm(a)
    sizes = np.diff(offsets)
    # np.unique would import numpy.ma, about 17 ms of every CLI run
    for size in (np.flatnonzero(np.bincount(sizes)[2:]) + 2).tolist():
        cols = offsets[:-1][sizes == size, None] + np.arange(size)
        blocks = (h_vecs[:, cols].conj().transpose(1, 2, 0)
                  @ kh[:, cols].transpose(1, 0, 2))
        off = np.linalg.norm(blocks * ~np.eye(size, dtype=bool), axis=(1, 2))
        for c, kb in zip(cols[off > noise], blocks[off > noise]):
            k_vals, k_vecs = _jacobi_hermitian(kb, tol.atol)
            # Rayleigh quotient of H per joint vector: |k_vecs|^2 column
            # sums against the member h values
            vals[c] = h_vals[c] @ np.abs(k_vecs) ** 2 + 1.0j * k_vals
            h_vecs[:, c] = h_vecs[:, c] @ k_vecs
    del kh  # one n x n array fewer under _eigensystem's peak
    return _eigensystem(vals, h_vecs)


def op_norm_2(m: OperatorMatrix, tol: Tolerances | None = None) -> float:
    """Spectral norm, the largest singular value, from ``_norm_in_frame``."""
    return _norm_in_frame(m, None, tol)


def _norm_in_frame(m: OperatorMatrix, frame: np.ndarray | None = None,
                   tol: Tolerances | None = None) -> float:
    """Spectral norm, the top singular value of ``M F`` for any unitary F.

    None stands for the identity.  A frame of nearly right singular
    vectors of M leaves a one-sided solve of a few sweeps; a poorer frame
    costs sweeps, not accuracy.  M is scaled by a power of two first
    when an entry is large enough for a norm to overflow.
    """
    tol = _resolve(tol)
    a, e = _power_of_two_scaled(m.array)
    g = a if frame is None else a @ frame
    sigma, _ = _jacobi_one_sided(g, tol.atol)
    return float(np.ldexp(sigma.max(), e))
