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

import math
import numbers
from dataclasses import dataclass
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

# Relative gaps within which default clusters and E_A's weights join
# (``_reach``).
_CLUSTER_REL = 1e-8
_WEIGHT_REL = 3e-8

# Absolute floor of the Jacobi targets ``ATOL (1 + ||M||)`` and of the
# bounds that must not fall to 0 with the operator.
ATOL = 1e-12

# Relative tolerance per dimension: every relative bound on C^n scales
# ``rel(n) = REL n``, read at call time.
REL = 1e-10

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

# A dim, of a file or a spec, is below this: no file holds its square.
_DIM_LIMIT = 2 ** 32


@dataclass(frozen=True)
class Tolerances:
    """The one tolerance a caller sets: the radius at which T's atoms join.

    Every other bound is fixed: relative ones scale with ``rel(n)`` and
    absolute floors are ``ATOL``.  Below the public routines, which read
    ``cluster`` once, the radius is a float.

    Parameters
    ----------
    cluster : float or None
        Absolute radius within which the atoms of a measure of T join,
        checked by ``_radius``; None for the default rule (``_reach``),
        capped by ``cluster_radius``.  E_A and E_B keep their own rules.
    """

    cluster: float | None = None

    def __post_init__(self):
        if self.cluster is not None:
            object.__setattr__(self, "cluster", _radius(self.cluster))

    @staticmethod
    def cluster_radius(scale: float) -> float:
        """Cap of the default rule up to ``scale``: ``1e-8 (1 + scale)``."""
        return _CLUSTER_REL * (1.0 + scale)


def _number(value, kind=numbers.Real) -> bool:
    """A ``kind`` of number (``numbers``) that is not a bool, read as 0 or 1."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _positive(value) -> float | None:
    """``value`` as a float if it is a finite real above 0 (``_number``).

    None otherwise, an integer past the double range among them.
    """
    if _number(value):
        try:
            x = float(value)
        except OverflowError:
            return None
        if 0.0 < x < np.inf:
            return x
    return None


def _radius(value) -> float:
    """A radius as a float: a finite real above 0 (``_positive``)."""
    radius = _positive(value)
    if radius is None:
        raise ValueError(f"cluster must be strictly positive, got {value!r}")
    return radius


def rel(n: int) -> float:
    """Relative tolerance for matrices on C^n: ``REL n``."""
    return REL * n


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Square complex matrix on C^n, the input of every public routine.

    The wrapped array is copied on construction into C-ordered complex128,
    checked to be square, non-empty and finite, and frozen, so instances
    can be shared freely between threads.
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


def _peak(a: np.ndarray) -> float:
    """Largest modulus of a complex array's real and imaginary parts, 0
    for none, read off their max and min: no copy of ``abs``."""
    parts = a.view(np.float64)
    return max(float(parts.max(initial=0.0)), -float(parts.min(initial=0.0)))


def _power_of_two_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(a 2^-e, e)``, e = 0 for a peak entry of 0 or in ``[2^-128, 2^128]``.

    Norms and Gram products square the entries, which overflows past
    about 1e154 and underflows below about 1e-154; a power of two scales
    without rounding, and the Jacobi rotations commute with it, so only
    the exponent is carried.
    """
    peak = _peak(a)
    if peak == 0.0 or 1.0 / _SCALE_LIMIT <= peak <= _SCALE_LIMIT:
        return a, 0
    e = int(np.frexp(peak)[1])
    return np.ldexp(a.view(np.float64), -e).view(a.dtype), e


def _refuse_past_scale_limit(m: OperatorMatrix | np.ndarray):
    """ScaleLimit past an entry of 2^128, every route's one refusal.

    ``m`` is an operator or a complex array of any shape, such as a
    measure's stack of dense projections.
    """
    peak = _peak(m.array if isinstance(m, OperatorMatrix) else m)
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


def is_hermitian(m: OperatorMatrix) -> bool:
    """True when ``||M - M*||_F <= rel(n) ||M||_F``.

    Both sides scale with M, so s M gets the verdict of M for every
    s > 0.
    """
    a, _ = _power_of_two_scaled(m.array)
    defect = np.linalg.norm(a - a.conj().T)
    return bool(defect <= rel(m.dim) * np.linalg.norm(a))


def _diagonal_blocks(a: np.ndarray) -> np.ndarray:
    """Offsets of the finest contiguous diagonal blocks of a square ``a``.

    A cut falls at k when ``a[:k, k:]`` and ``a[k:, :k]`` are exactly 0,
    read off the last nonzero column of each row of the symmetrized
    pattern in O(n^2): a dense matrix is one block.  Blocks that
    interleave (rows 0 and 2 against rows 1 and 3) are one coarser
    block.
    """
    n = a.shape[0]
    nz = a != 0
    nz |= nz.T
    np.fill_diagonal(nz, True)
    far = n - 1 - np.argmax(nz[:, ::-1], axis=1)
    reach = np.maximum.accumulate(far)
    return np.concatenate(([0], np.flatnonzero(reach == np.arange(n)) + 1))


def _size_groups(offsets: np.ndarray):
    """``(size, starts)`` of the blocks at ``offsets``, one per size."""
    sizes = np.diff(offsets)
    # np.unique would import numpy.ma, about 17 ms of every CLI run
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        yield size, offsets[:-1][sizes == size]


def _column_stack(a: np.ndarray, starts: np.ndarray,
                  size: int) -> np.ndarray:
    """Runs of ``a``'s columns of one width, as a stack (m x rows x size):
    a view of a single run, a gathered copy of several."""
    if starts.size == 1:
        lo = int(starts[0])
        return a[None, :, lo:lo + size]
    return a[:, starts[:, None] + np.arange(size)].transpose(1, 0, 2)


def _put_blocks(a: np.ndarray, starts: np.ndarray, size: int,
                stack: np.ndarray):
    """The diagonal blocks of ``a`` at ``starts`` set to ``stack``, in
    place."""
    if starts.size == 1:
        lo = int(starts[0])
        a[lo:lo + size, lo:lo + size] = stack[0]
    else:
        idx = starts[:, None] + np.arange(size)
        a[idx[:, :, None], idx[:, None, :]] = stack


def is_normal(m: OperatorMatrix) -> bool:
    """True when ``||M*M - MM*||_F <= rel(n) ||M||_F^2``.

    The defect D is block-diagonal with M, so it is summed over M's
    diagonal blocks (``_diagonal_blocks``); a 1 x 1 block adds nothing.
    In a block it is summed over blocks of rows of at most
    ``_BLOCK_BYTES``, with no copy of M* or of a whole product.  D is
    Hermitian, so each row block is formed from its diagonal block
    rightward and the part right of that block counts twice: half the
    products, which pays for repacking M on each row block.
    """
    a, _ = _power_of_two_scaled(m.array)
    n = m.dim
    offsets = _diagonal_blocks(a).tolist()
    square = 0.0
    for i, j in zip(offsets, offsets[1:]):
        if j == i + 1:
            continue
        x = a[i:j, i:j]
        rows = max(1, _BLOCK_BYTES // (16 * (j - i)))
        for lo in range(0, j - i, rows):
            # these rows of conj(D), from column lo on: conj(M*M) - conj(MM*)
            block = x[:, lo:lo + rows].conj().T @ x[:, lo:]
            np.conjugate(block, out=block)
            block -= x[lo:lo + rows].conj() @ x[lo:].T
            head = block[:, :rows]
            square += (2.0 * np.vdot(block, block).real
                       - np.vdot(head, head).real)
    return bool(math.sqrt(square) <= rel(n) * np.vdot(a, a).real)


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
    bound = np.outer(root, root)
    bound *= level
    np.maximum(bound, _TINY_PIVOT, out=bound)
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


def _jacobi_hermitian(matrix: np.ndarray):
    """Diagonalize the Hermitian part of an array by cyclic Jacobi rotations.

    The solve works on ``W = (M + M*)/2`` in complex128, so callers pass
    their raw arrays; the projection leaves a matrix that is Hermitian
    to the bit unchanged.  Rotations are applied in round-robin order;
    the pairs inside one round are disjoint, so their rotations commute
    and a round is applied in place, a block of pairs at a time, each
    block's gathered rows and columns at most ``_BLOCK_BYTES``.
    ``_sweep_head`` decides at level eps, against the target
    ``ATOL (1 + ||W||_F)`` and the rotation budget ``30 n^2``.  W is
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
    w = np.conjugate(m.T, order="C")
    w += m
    w /= 2.0
    w, e = _power_of_two_scaled(w)
    fro = float(np.linalg.norm(w))
    off_target = float(np.ldexp(ATOL * (1.0 + np.ldexp(fro, e)), -e))
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


def _jacobi_one_sided(matrix: np.ndarray):
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
    ``ATOL (1 + ||M*M||_F)``, the budget ``30 n^2`` rotations.

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
    off_target = ATOL * (1.0 + np.linalg.norm(gram))
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
    vecs *= lead.conj() / np.abs(lead)
    return EigenSystem(OperatorMatrix(vecs), vals[order])


def hermitian_eig(m: OperatorMatrix) -> EigenSystem:
    """Diagonalize a Hermitian matrix.

    Parameters
    ----------
    m : OperatorMatrix
        Hermitian input; checked first against ``rel(n)``
        (``is_hermitian``; NotHermitian on failure), then ScaleLimit
        past an entry of 2^128.

    Returns
    -------
    EigenSystem
        Real eigenvalues (imaginary parts zeroed) in ascending order.
    """
    if not is_hermitian(m):
        raise NotHermitian("hermitian_eig requires a Hermitian matrix")
    _refuse_past_scale_limit(m)
    return _eigensystem(*_jacobi_hermitian(m.array))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + l)`` for each start s and length l, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


def _reach(mags: np.ndarray, cluster: float | None, of: str) -> np.ndarray:
    """How far points of moduli ``mags`` reach in a measure of ``of``.

    ``cluster``, T's radius as a float, is the reach of every point (E_A
    and E_B carry none).  Else ``min(R, 1e-8 |x| + 100 eps s)``, s the
    largest modulus and ``R = Tolerances.cluster_radius(s)``.  E_A's
    weights, as accurate relative to their own size as one-sided
    singular values, reach
    ``min(R, 3e-8 |x| + 100 eps |x|)`` (R binds above |x| = (1 + s)/3),
    where two errors balance: a join of radius rho moves a point z of T
    by up to rho/2 |z|, and weights a relative delta > rho apart keep
    singular subspaces mixed to about sqrt(n) eps / delta.
    """
    if cluster is not None:
        return np.full(mags.shape, cluster)
    top = float(np.max(mags, initial=0.0))
    slope, floor = (_WEIGHT_REL, mags) if of == "A" else (_CLUSTER_REL, top)
    return np.minimum(Tolerances.cluster_radius(top),
                      slope * mags + 100.0 * _EPS * floor)


def _clusters(points: np.ndarray, cluster: float | None = None,
              weights=None, of: str = "T"
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clustering rule, as arrays: ``(members, offsets, means)``.

    Points a and b join when ``|a - b| <= max(reach_a, reach_b)``, each
    reach from ``_reach(|points|, cluster, of)``, ``cluster`` a float.

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
    reach = _reach(np.abs(pts), cluster, of)
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
    members, offsets, _ = _clusters(points, _radius(radius))
    return np.split(members, offsets[1:-1]) if members.size else []


def normal_eig(m: OperatorMatrix) -> EigenSystem:
    """Diagonalize a normal matrix through its Hermitian/skew split.

    Writes ``M = H + iK`` with ``H = (M + M*)/2`` and ``K = (M - M*)/(2i)``,
    which commute exactly when M is normal.  Each diagonal block of M
    (``_diagonal_blocks``) is solved alone, and a 1 x 1 block is its own
    eigenpair.  In a block H is diagonalized first and K is formed on
    H's vectors with one product.  K is then diagonalized inside each
    cluster of nearby H eigenvalues whose K block has off-diagonal mass
    above ``n eps ||M||_F``; every other vector keeps its K Rayleigh
    quotient.  The joint eigenvalue of a vector is its H Rayleigh
    quotient plus i times its K eigenvalue.  H's clusters are cut by the
    largest |h| of all of M, and K's floor is M's, so a block is solved
    by the rules of the whole matrix.

    Raises NotNormal when the commutator test fails, first, ScaleLimit
    past an entry of 2^128 and NoConvergence when a Jacobi stage stalls.
    """
    if not is_normal(m):
        raise NotNormal("normal_eig requires a normal matrix")
    _refuse_past_scale_limit(m)
    return _normal_eig(m)


def _normal_eig(m: OperatorMatrix) -> EigenSystem:
    """``normal_eig`` past its checks, for a caller that made them."""
    a = m.array
    n = m.dim
    offsets = _diagonal_blocks(a)
    ones = offsets[:-1][np.diff(offsets) == 1]
    vals = a.diagonal().copy()  # a 1 x 1 block is its own eigenpair
    top = float(np.abs(vals[ones].real).max(initial=0.0))
    solved = []
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        if hi - lo > 1:  # the block's H = (M + M*)/2, sorted
            h_vals, h_vecs = _jacobi_hermitian(a[lo:hi, lo:hi])
            order = np.argsort(h_vals, kind="stable")
            solved.append((lo, hi, h_vals[order], h_vecs[:, order]))
            top = max(top, float(np.abs(h_vals).max()))
    # H's vectors are as good as eps ||M|| over H's gaps: an absolute cut
    radius = Tolerances.cluster_radius(top)
    # a K block whose off-diagonal is rounding of M keeps H's vectors:
    # rotating on it would mix the H values of a chained cluster at random
    noise = n * _EPS * np.linalg.norm(a)
    for lo, hi, h_vals, h_vecs in solved:
        vals[lo:hi] = _k_stage(a[lo:hi, lo:hi], h_vals, h_vecs, radius,
                               noise)
    # one n x n frame, block-diagonal, filled once the K stage's arrays
    # are gone
    frame = np.zeros((n, n), dtype=np.complex128)
    frame[ones, ones] = 1.0
    while solved:
        lo, hi, _, h_vecs = solved.pop()
        frame[lo:hi, lo:hi] = h_vecs
        del h_vecs
    return _eigensystem(vals, frame)


def _k_stage(a: np.ndarray, h_vals: np.ndarray, h_vecs: np.ndarray,
             radius: float, noise: float) -> np.ndarray:
    """Joint eigenvalues of a normal block ``a`` on H's sorted eigenpairs.

    K is diagonalized inside each cluster of H values closer than
    ``radius`` whose K block has off-diagonal mass above ``noise``, and
    those columns of ``h_vecs`` are rotated in place.
    """
    cuts = np.diff(h_vals) > radius
    offsets = np.concatenate(([0], np.flatnonzero(cuts) + 1, [h_vals.size]))
    kh = ((a - a.conj().T) / 2.0j) @ h_vecs
    vals = h_vals + 1.0j * np.einsum("ij,ij->j", h_vecs.conj(), kh).real
    for size, starts in _size_groups(offsets):
        if size == 1:
            continue
        cols = starts[:, None] + np.arange(size)
        blocks = (_column_stack(h_vecs, starts, size).conj()
                  .transpose(0, 2, 1) @ _column_stack(kh, starts, size))
        off = np.linalg.norm(blocks * ~np.eye(size, dtype=bool), axis=(1, 2))
        for c, kb in zip(cols[off > noise], blocks[off > noise]):
            k_vals, k_vecs = _jacobi_hermitian(kb)
            # Rayleigh quotient of H per joint vector: |k_vecs|^2 column
            # sums against the member h values
            vals[c] = h_vals[c] @ np.abs(k_vecs) ** 2 + 1.0j * k_vals
            h_vecs[:, c] = h_vecs[:, c] @ k_vecs
    return vals


def op_norm_2(m: OperatorMatrix) -> float:
    """Spectral norm, the largest singular value, by one one-sided solve.

    M F has the singular values of M for every unitary F, so a caller
    holding nearly right singular vectors F of M passes ``M F``: the
    solve then takes a few sweeps, and a poorer frame costs sweeps, not
    accuracy.  M is scaled by a power of two first when an entry is
    large enough for a norm to overflow.
    """
    a, e = _power_of_two_scaled(m.array)
    sigma, _ = _jacobi_one_sided(a)
    return float(np.ldexp(sigma.max(), e))
