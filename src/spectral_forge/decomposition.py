"""Bounded commuting pair extracted from a normal operator.

For a normal matrix T the pair

    A = (I + T*T)^(-1)        B = T A

consists of a Hermitian positive definite A with ||A|| <= 1 and a
normal B with ||B|| <= 1/2 that commute, and T is recovered as
A^(-1) B.  At finite dimension A T equals B exactly (in the unbounded
setting the product is only contained in B).

``decompose`` builds the pair from one one-sided Jacobi solve of T,
which rotates T into T V = G and never forms V: the columns of G give
the singular values s and U = G/s.  T is normal, so these left singular
vectors span the singular subspaces of T that right ones would, and
||T||_2 = max s.  On T's null modes, s <= 100 n eps max s, G holds only
rounding (some columns are exactly 0), so U is completed there by the
orthogonal complement of the range columns (``_complement``).  With the
weights w = 1/(1 + s^2), whose relative accuracy is that of s at every
norm (Demmel & Veselic 1992), U and w are A's eigensystem: w ascends,
T's null modes come last among equal weights, and each column of U has
its largest entry real and positive.  So

    A = U W U*        B = U W^(1/2) (U* T U) W^(1/2) U*,

which equals T A because A and T commute.  U* T U carries rounding of
about eps ||T|| per entry: formed as T A, B would keep it unweighted,
and ||[A, B]|| would reach eps ||T||.  In the rows and columns of T's
null modes, where T u = T* u = 0, that rounding is all there is, so
only the range block of B's local form L = W^(1/2) (U* T U) W^(1/2) is
formed, r x r for the r range modes.  The pair holds U, w and L and
forms A and B on first read, so a run that reads only its report never
forms them; E_A is w on the columns of U, and E_B is solved from L.
Normality is tested first (NotNormal), then an entry past 2^128 is
refused (ScaleLimit); below it, T is scaled by a power of two when a
norm would leave the float range.

``verify`` checks the pair against the exactly known I + T*T through
the residual (I + T*T) B - T, which shares nothing with that solve.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotNormal
from .linalg import (
    _EPS,
    ATOL,
    OperatorMatrix,
    _jacobi_one_sided,
    _norm,
    _power_of_two_scaled,
    _refuse_past_scale_limit,
    is_hermitian,
    is_normal,
    op_norm_2,
    rel,
)
from .report import VerificationReport

__all__ = ["Decomposition", "decompose", "verify", "norm_bounds"]

# Multipliers that turn the base relative tolerance rel(n) into the
# documented acceptance thresholds for each verified identity.
RECONSTRUCTION_FACTOR = 100.0
IDENTITY_FACTOR = 10.0

class Decomposition:
    """Pair (A, B) with the spectral norm of the source operator.

    ``a`` is Hermitian positive definite with norm at most 1, ``b`` is
    normal with norm at most 1/2, and ``a^(-1) b`` recovers the source.
    ``source_norm`` records ||T||_2, which the pipeline's guard reads.
    A pair read from a file or built by hand keeps the matrices it is
    given.  A pair ``decompose`` solves holds U, the weights w and B's
    local form L instead, and forms ``a = (U w) U*`` and
    ``b = U_r L U_r*`` once each, on first read.
    """

    def __init__(self, a: OperatorMatrix, b: OperatorMatrix,
                 source_norm: float):
        self.a, self.b = a, b
        self.source_norm = source_norm
        self.dim = a.dim

    @classmethod
    def _factored(cls, unitary: np.ndarray, weights: np.ndarray,
                  local: np.ndarray, source_norm: float) -> "Decomposition":
        """The pair of U, weights w and B's r x r local form L."""
        d = cls.__new__(cls)
        d._unitary, d._weights, d._local = unitary, weights, local
        d.source_norm = source_norm
        d.dim = unitary.shape[0]
        return d

    # a pair given as matrices holds them as instance attributes, which
    # shadow these
    @cached_property
    def a(self) -> OperatorMatrix:
        u = self._unitary
        return OperatorMatrix((u * self._weights) @ u.conj().T)

    @cached_property
    def b(self) -> OperatorMatrix:
        ur = self._unitary[:, :self._local.shape[0]]
        return OperatorMatrix(ur @ self._local @ ur.conj().T)


def _complement(u: np.ndarray, k: int) -> np.ndarray:
    """k orthonormal columns orthogonal to the orthonormal columns of u.

    A pivoted Cholesky factor L of the projector P = I - u u*.  P's
    columns are formed only as pivots, ``e_c - u u*_c``, one at a time
    at the largest entry left on P's diagonal; the diagonal,
    1 - ||u_c||^2 at first, loses each column of L as it comes off.  P
    has rank and trace k, so what is left of it after j columns has a
    pivot of at least (k - j)/n.  P^2 = P and L L* = P, so L* L = I: L's
    columns are orthonormal.  One pass against u then takes out what
    rounding left in u's span.
    """
    diag = 1.0 - np.linalg.norm(u, axis=1) ** 2
    out = np.zeros((u.shape[0], k), dtype=np.complex128, order="F")
    for j in range(k):
        c = int(np.argmax(diag))
        # minus what is left of P's column c after L's columns so far
        col = u @ u[c].conj() + out[:, :j] @ out[c, :j].conj()
        col[c] -= 1.0
        col *= -1.0 / np.sqrt(diag[c])
        out[:, j] = col
        diag -= col.real ** 2 + col.imag ** 2
    out -= u @ (u.conj().T @ out)
    return out


def decompose(t: OperatorMatrix) -> Decomposition:
    """Split a normal T into its bounded pair, from one solve of T.

    The solve of the module docstring.  Raises NotNormal on a non-normal
    input, then ScaleLimit past an entry of 2^128, where the I + T*T of
    ``verify`` would overflow.  The pair holds U (read-only, in
    column-major order, the layout a gathered copy of its columns would
    have: products with one atom's columns round by it), the ascending
    weights w and B's read-only r x r local form L.
    """
    if not is_normal(t):
        raise NotNormal("input is not normal: T*T - TT* exceeds tolerance")
    _refuse_past_scale_limit(t)
    scaled, e = _power_of_two_scaled(t.array)
    sigma, u = _jacobi_one_sided(scaled)
    # T's null modes from s, not w: w rounds to 1 for every s below
    # 1e-8.  G and s carry the same scale, so U = G/s takes them scaled
    null = sigma <= 100.0 * t.dim * _EPS * sigma.max()
    k = int(null.sum())
    u /= np.where(null, 1.0, sigma)
    if k:
        u[:, null] = _complement(u[:, ~null], k)
    sigma = np.ldexp(sigma, e)
    weights = 1.0 / (1.0 + sigma * sigma)
    # ascending, and a null mode has no smaller weight than a range
    # mode, so with null modes last among equal weights the range modes
    # come first
    order = np.lexsort((null, weights))
    w = weights[order]
    u = np.asfortranarray(u[:, order])
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(t.dim)]
    u *= lead.conj() / np.abs(lead)
    u.setflags(write=False)
    r = t.dim - k
    # products round by their operands' layout, and L is formed from a
    # row-major copy of the range columns
    ur = np.ascontiguousarray(u[:, :r])
    local = ur.conj().T @ (t.array @ ur)
    local *= np.sqrt(np.outer(w[:r], w[:r]))  # exactly w_i on the diagonal
    local.setflags(write=False)
    return Decomposition._factored(u, w, local, float(sigma.max()))


def verify(t: OperatorMatrix, d: Decomposition) -> VerificationReport:
    """Measure every defining identity of a decomposition.

    Residuals reported (Frobenius norms throughout, taken by
    ``linalg._norm``, so no square overflows or underflows):

    - ``injectivity_margin``: smallest eigenvalue of A's Hermitian part
      A_h, compared against ``1/(1 + ||T||_2^2) - rel(n)``.  A_h + cI,
      c = 1 + ||A_h||_F, is positive definite, so one one-sided solve
      gives its eigenvalues s (those of A_h plus c) and eigenvectors
      G/s.  ||T||_2 is solved in that eigenframe, never read from
      ``d.source_norm``.
    - ``reconstruction``: ||(I + T*T) B - T||, using the exactly known
      inverse of A rather than anything computed from A itself.
    - ``commutator``: ||AB - BA||.
    - ``claim_product``: ||A T - B||.
    - ``adjoint_identity``: ||B* - T* A||.
    - ``hermitian_defect_a``, ``normality_defect_b``, and for Hermitian
      inputs ``hermitian_defect_b``.

    Always returns a report; nothing is raised for failed checks.  An
    entry of T, A or B past 2^128 is refused with ScaleLimit before any
    product is formed.
    """
    if t.dim != d.dim:
        raise DimensionMismatch("operator and decomposition dimensions differ")
    for m in (t, d.a, d.b):
        _refuse_past_scale_limit(m)
    base = rel(t.dim)
    ta = t.array
    aa = d.a.array
    ba = d.b.array

    # A stored decomposition may be tampered with: its Hermitian part is
    # solved so that a non-Hermitian A fails a check instead of raising.
    a_h = (aa + aa.conj().T) / 2.0
    shift = 1.0 + float(np.linalg.norm(a_h))
    s, g = _jacobi_one_sided(a_h + shift * np.eye(t.dim))
    min_eig_a = float(s.min()) - shift
    # A's eigenframe nearly diagonalizes T*T, so the norm solve is warm.
    op_t = op_norm_2(OperatorMatrix(ta @ (g / s)))
    fro_t = _norm(ta)
    fro_a = _norm(aa)
    fro_b = _norm(ba)

    margin_bound = 1.0 / (1.0 + op_t * op_t) - base
    identity_bound = IDENTITY_FACTOR * base * (1.0 + op_t)
    gram = ta.conj().T @ ta
    gram = (gram + gram.conj().T) / 2.0 + np.eye(t.dim)  # I + T*T
    bh = ba.conj().T
    checks = [
        ("injectivity_margin", min_eig_a, margin_bound,
         min_eig_a >= margin_bound),
        ("reconstruction", _norm(gram @ ba - ta),
         RECONSTRUCTION_FACTOR * base * (1.0 + fro_t)),
        ("commutator", _norm(aa @ ba - ba @ aa),
         base * fro_a * fro_b + ATOL),
        ("claim_product", _norm(aa @ ta - ba), identity_bound),
        ("adjoint_identity", _norm(bh - ta.conj().T @ aa),
         identity_bound),
        ("hermitian_defect_a", _norm(aa - aa.conj().T),
         identity_bound),
        ("normality_defect_b", _norm(bh @ ba - ba @ bh),
         identity_bound),
    ]
    if is_hermitian(t):
        checks.append(("hermitian_defect_b", _norm(ba - bh),
                       identity_bound))
    return VerificationReport.from_checks(checks)


def norm_bounds(d: Decomposition) -> tuple[float, float]:
    """Spectral norms ``(||A||_2, ||B||_2)`` of the pair.

    For a decomposition of a normal operator these stay within rounding
    of 1 and 1/2 at every scaling of the source.
    """
    return op_norm_2(d.a), op_norm_2(d.b)
