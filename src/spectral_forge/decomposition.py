"""Bounded commuting pair extracted from a normal operator.

For a normal matrix T the pair

    A = (I + T*T)^(-1)        B = T A

consists of a Hermitian positive definite A with ||A|| <= 1 and a
normal B with ||B|| <= 1/2 that commute, and T is recovered as
A^(-1) B.  At finite dimension A T equals B exactly (in the unbounded
setting the product is only contained in B).  ``decompose`` builds the
pair from one one-sided Jacobi solve T V = U S.  With the weights
W = diag(1/(1 + s^2)), whose relative accuracy is that of the singular
values s at every norm, A = V W V* and B = V W^(1/2) (V* T V) W^(1/2) V*,
which equals T A because A and T commute; ||T||_2 = max s.  ``verify``
checks the pair against the exactly known I + T*T through the residual
(I + T*T) B - T, which shares nothing with that solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotNormal
from .linalg import (
    EigenSystem,
    OperatorMatrix,
    Tolerances,
    _eigensystem,
    _jacobi_one_sided,
    _norm_in_frame,
    _power_of_two_scaled,
    _refuse_past_scale_limit,
    _resolve,
    hermitian_eig,
    is_hermitian,
    is_normal,
    op_norm_2,
)
from .report import VerificationReport

__all__ = ["Decomposition", "decompose", "verify", "norm_bounds"]

# Multipliers that turn the base relative tolerance rel(n) into the
# documented acceptance thresholds for each verified identity.
RECONSTRUCTION_FACTOR = 100.0
IDENTITY_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Pair (A, B) with the spectral norm of the source operator.

    ``a`` is Hermitian positive definite with norm at most 1, ``b`` is
    normal with norm at most 1/2, and ``a^(-1) b`` recovers the source.
    ``source_norm`` records ||T||_2 for tolerance scaling.
    """

    a: OperatorMatrix
    b: OperatorMatrix
    source_norm: float

    @property
    def dim(self) -> int:
        return self.a.dim


def _require_normal(t: OperatorMatrix, tol: Tolerances):
    if not is_normal(t, tol):
        raise NotNormal("input is not normal: T*T - TT* exceeds tolerance")


def _bounded_pair(t: OperatorMatrix, tol: Tolerances
                  ) -> tuple[Decomposition, EigenSystem, np.ndarray]:
    """``(D, E, V* B V)`` from one one-sided Jacobi solve of T.

    With T V = U S and W the weights 1/(1 + s^2), E is A's eigensystem
    (W ascending on the columns of V), D holds A = V W V*,
    B = V W^(1/2) (V* T V) W^(1/2) V* and ||T||_2 = max s, and the last
    entry is B's local form W^(1/2) (V* T V) W^(1/2), which a solve of
    E_B takes as it is.  V* T V carries rounding of about
    eps ||T|| per entry: formed as T A, B would keep it unweighted, and
    ||[A, B]|| would reach eps ||T||.  T is scaled by a power of two
    first when a norm of it would leave the float range, and an s whose
    square overflows gets weight 0.  Normality is not tested here.
    """
    scaled, e = _power_of_two_scaled(t.array)
    sigma, v = _jacobi_one_sided(scaled, tol.atol)
    sigma = np.ldexp(sigma, e)
    with np.errstate(over="ignore"):
        weights = 1.0 / (1.0 + sigma * sigma)
    es = _eigensystem(weights, v)
    u = es.unitary.array
    w = es.eigenvalues.real
    # sqrt(w_i w_j), exactly w_i on the diagonal
    b_local = (u.conj().T @ (t.array @ u)) * np.sqrt(np.outer(w, w))
    return Decomposition(OperatorMatrix((u * w) @ u.conj().T),
                         OperatorMatrix(u @ b_local @ u.conj().T),
                         float(sigma.max())), es, b_local


def decompose(t: OperatorMatrix, tol: Tolerances | None = None) -> Decomposition:
    """Split a normal T into its bounded pair, from one solve of T.

    Raises ScaleLimit past an entry of 2^128, where I + T*T would
    overflow, and NotNormal for a non-normal input.
    """
    tol = _resolve(tol)
    _refuse_past_scale_limit(t)
    _require_normal(t, tol)
    return _bounded_pair(t, tol)[0]


def verify(t: OperatorMatrix, d: Decomposition,
           tol: Tolerances | None = None) -> VerificationReport:
    """Measure every defining identity of a decomposition.

    Residuals reported (Frobenius norms throughout):

    - ``injectivity_margin``: smallest eigenvalue of A, compared against
      ``1/(1 + ||T||_2^2) - rel(n)``.  ||T||_2 is solved in the eigenframe
      of that same solve of A, never read from ``d.source_norm``.
    - ``reconstruction``: ||(I + T*T) B - T||, using the exactly known
      inverse of A rather than anything computed from A itself.
    - ``commutator``: ||AB - BA||.
    - ``claim_product``: ||A T - B||.
    - ``adjoint_identity``: ||B* - T* A||.
    - ``hermitian_defect_a``, ``normality_defect_b``, and for Hermitian
      inputs ``hermitian_defect_b``.

    Always returns a report; nothing is raised for failed checks.
    """
    tol = _resolve(tol)
    if t.dim != d.dim:
        raise DimensionMismatch("operator and decomposition dimensions differ")
    rel = tol.rel(t.dim)
    ta = t.array
    aa = d.a.array
    ba = d.b.array

    # A stored decomposition may be tampered with: its Hermitian part is
    # solved so that a non-Hermitian A fails a check instead of raising.
    es_a = hermitian_eig(OperatorMatrix((aa + aa.conj().T) / 2.0), tol)
    min_eig_a = float(np.min(es_a.eigenvalues.real))
    # A's eigenframe nearly diagonalizes T*T, so the norm solve is warm.
    op_t = _norm_in_frame(t, es_a.unitary.array, tol)
    fro_t = float(np.linalg.norm(ta))
    fro_a = float(np.linalg.norm(aa))
    fro_b = float(np.linalg.norm(ba))

    margin_bound = 1.0 / (1.0 + op_t * op_t) - rel
    identity_bound = IDENTITY_FACTOR * rel * (1.0 + op_t)
    gram = ta.conj().T @ ta
    gram = (gram + gram.conj().T) / 2.0 + np.eye(t.dim)  # I + T*T
    bh = ba.conj().T
    checks = [
        ("injectivity_margin", min_eig_a, margin_bound,
         min_eig_a >= margin_bound),
        ("reconstruction", float(np.linalg.norm(gram @ ba - ta)),
         RECONSTRUCTION_FACTOR * rel * (1.0 + fro_t)),
        ("commutator", float(np.linalg.norm(aa @ ba - ba @ aa)),
         rel * fro_a * fro_b + tol.atol),
        ("claim_product", float(np.linalg.norm(aa @ ta - ba)), identity_bound),
        ("adjoint_identity", float(np.linalg.norm(bh - ta.conj().T @ aa)),
         identity_bound),
        ("hermitian_defect_a", float(np.linalg.norm(aa - aa.conj().T)),
         identity_bound),
        ("normality_defect_b", float(np.linalg.norm(bh @ ba - ba @ bh)),
         identity_bound),
    ]
    if is_hermitian(t, tol):
        checks.append(("hermitian_defect_b", float(np.linalg.norm(ba - bh)),
                       identity_bound))
    return VerificationReport.from_checks(checks)


def norm_bounds(d: Decomposition, tol: Tolerances | None = None) -> tuple[float, float]:
    """Spectral norms ``(||A||_2, ||B||_2)`` of the pair.

    For a decomposition of a normal operator these stay within
    ``1 + tol`` and ``1/2 + tol`` at every scaling of the source.
    """
    tol = _resolve(tol)
    return op_norm_2(d.a, tol), op_norm_2(d.b, tol)
