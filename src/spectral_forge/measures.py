"""Discrete projection valued measures on the complex plane.

A measure is a finite family of atoms: pairwise distinct points, each
carrying an orthogonal projection, with the projections mutually
orthogonal and summing to the identity.  Atoms built by this package
are stored as orthonormal column blocks of one eigenbasis; the dense
projection of an atom is materialized on demand as ``V V*``, which is
Hermitian by construction.  Measures loaded from files (or built by
hand, for example in tampering tests) keep their dense projections
verbatim so validation judges exactly what was supplied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue
from .linalg import (
    EigenSystem,
    OperatorMatrix,
    Tolerances,
    _resolve,
    cluster_points,
    hermitian_eig,
    normal_eig,
)
from .report import VerificationReport

__all__ = [
    "SpectralMeasure",
    "pvm_from_normal",
    "pvm_integrate",
    "pvm_validate",
]

# Residual multiplier: PVM invariants are held to 10 * rel(n).
PVM_FACTOR = 10.0


def _dense_rank(proj: np.ndarray) -> int:
    """Rank of a dense atom: its rounded trace, and at least one column."""
    return max(1, int(round(float(np.trace(proj).real))))


class _AtomStore:
    """Atoms stored as orthonormal bases or as dense projections.

    Shared by SpectralMeasure and ProductMeasure, which are frozen
    dataclasses with ``dim``, ``bases`` and ``projections`` fields of
    their own.  Each checks its own points, then calls ``_store_atoms``;
    ``_atom_label`` names an atom's point in error messages.
    """

    def _store_atoms(self, count: int):
        if (self.bases is None) == (self.projections is None):
            raise ValueError("exactly one of bases and projections is required")
        if self.bases is not None:
            blocks = tuple(np.array(b, dtype=np.complex128, copy=True)
                           for b in self.bases)
            for b in blocks:
                if b.ndim != 2 or b.shape[0] != self.dim or b.shape[1] == 0:
                    raise DimensionMismatch("basis blocks must be dim x rank")
                b.setflags(write=False)
            if len(blocks) != count:
                raise DimensionMismatch("one basis block per atom is required")
            object.__setattr__(self, "bases", blocks)
        else:
            mats = tuple(np.array(p, dtype=np.complex128, copy=True)
                         for p in self.projections)
            for p in mats:
                if p.shape != (self.dim, self.dim):
                    raise DimensionMismatch("projections must be dim x dim")
                p.setflags(write=False)
            if len(mats) != count:
                raise DimensionMismatch("one projection per atom is required")
            object.__setattr__(self, "projections", mats)

    @property
    def num_atoms(self) -> int:
        return len(self.bases if self.bases is not None else self.projections)

    @property
    def ranks(self) -> tuple[int, ...]:
        if self.bases is not None:
            return tuple(b.shape[1] for b in self.bases)
        return tuple(_dense_rank(p) for p in self.projections)

    def basis(self, i: int) -> np.ndarray:
        """Orthonormal columns spanning atom ``i``.

        For dense-only measures the basis is recovered from the
        projection's top eigenvectors; this assumes the projection is
        genuine, so validate first when provenance is unknown.
        """
        if self.bases is not None:
            return self.bases[i]
        proj = self.projections[i]
        # Files may hold tampered atoms: solving the Hermitian part lets
        # validation report the defect instead of raising NotHermitian.
        es = hermitian_eig(OperatorMatrix((proj + proj.conj().T) / 2.0))
        return es.unitary.array[:, self.dim - _dense_rank(proj):]

    def projection(self, i: int) -> OperatorMatrix:
        """Dense projection of atom ``i``."""
        if self.bases is not None:
            b = self.bases[i]
            return OperatorMatrix(b @ b.conj().T)
        return OperatorMatrix(self.projections[i])

    def stacked_basis(self) -> np.ndarray:
        """All atom bases side by side, in atom order."""
        return np.hstack([self.basis(i) for i in range(self.num_atoms)])

    def _weighted_sum(self, weights: np.ndarray) -> OperatorMatrix:
        """``sum weights[k] P_k``; NonFiniteValue names the first bad atom."""
        bad = ~np.isfinite(weights.view(np.float64)).reshape(-1, 2).all(axis=1)
        if bad.any():
            where = int(np.argmax(bad))
            raise NonFiniteValue(
                f"integrand is not finite at atom {where} "
                f"({self._atom_label(where)})"
            )
        if self.bases is not None:
            stacked = self.stacked_basis()
            per_column = np.repeat(weights, self.ranks)
            return OperatorMatrix((stacked * per_column) @ stacked.conj().T)
        total = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for w, p in zip(weights, self.projections):
            total += w * p
        return OperatorMatrix(total)


@dataclass(frozen=True, eq=False)
class SpectralMeasure(_AtomStore):
    """Finite projection valued measure.

    Parameters
    ----------
    dim : int
        Dimension of the underlying space.
    points : ndarray
        Atom locations, complex, sorted lexicographically by
        (real, imaginary) part.
    bases : tuple of ndarray, optional
        Orthonormal columns spanning each atom's range.
    projections : tuple of ndarray, optional
        Dense projections, used when no basis factorization is known.

    Exactly one of ``bases`` and ``projections`` must be given.
    """

    dim: int
    points: np.ndarray
    bases: tuple | None = None
    projections: tuple | None = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.complex128, copy=True)
        if pts.ndim != 1 or pts.size == 0:
            raise DimensionMismatch("a measure needs at least one atom")
        if not np.all(np.isfinite(pts.view(np.float64))):
            raise NonFiniteValue("atom points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        self._store_atoms(pts.size)

    def _atom_label(self, i: int) -> str:
        return f"point {complex(self.points[i])}"

    @property
    def support_radius(self) -> float:
        return float(np.max(np.abs(self.points)))

    @property
    def atoms(self) -> list[tuple[complex, OperatorMatrix]]:
        """Atoms as (point, projection) pairs, dense projections included."""
        return [(complex(self.points[i]), self.projection(i))
                for i in range(self.num_atoms)]


def pvm_from_normal(m: OperatorMatrix, tol: Tolerances | None = None) -> SpectralMeasure:
    """Spectral measure of a normal matrix.

    Eigenvalues within the clustering radius collapse into a single
    atom located at the cluster mean, whose projection spans all the
    member eigenvectors.  Raises NotNormal or NoConvergence from the
    underlying eigendecomposition.
    """
    tol = _resolve(tol)
    return _clustered_measure(normal_eig(m, tol), tol)


def _clustered_measure(es: EigenSystem, tol: Tolerances) -> SpectralMeasure:
    """Measure of a unitary diagonalization, clusters merged into atoms."""
    vals = es.eigenvalues
    radius = tol.cluster_radius(float(np.max(np.abs(vals))))
    clusters = cluster_points(vals, radius)
    points = np.array([vals[c].mean() for c in clusters])
    bases = tuple(es.unitary.array[:, c] for c in clusters)
    return SpectralMeasure(es.dim, points, bases=bases)


def _measure_in_frame(local: np.ndarray, frame: np.ndarray,
                      tol: Tolerances | None = None) -> SpectralMeasure:
    """Spectral measure of a normal M given in a frame as ``V* M V``.

    For a unitary ``frame`` V the matrix V* M V is unitarily similar to
    M, so ``pvm_from_normal`` finds the same atoms, and one product with
    V maps their bases back.  A frame that nearly diagonalizes M, such as
    the eigenbasis of an operator commuting with it, leaves only
    rounding-level mass off the diagonal and saves Jacobi sweeps.
    """
    e = pvm_from_normal(OperatorMatrix(local), tol)
    rotated = frame @ e.stacked_basis()
    cuts = np.cumsum(e.ranks)[:-1]
    return SpectralMeasure(e.dim, e.points,
                           bases=tuple(np.hsplit(rotated, cuts)))


def pvm_integrate(f, e: SpectralMeasure) -> OperatorMatrix:
    """Integrate a scalar function against a measure: ``sum f(z_k) P_k``.

    Raises NonFiniteValue when f produces a NaN or infinity on an atom.
    """
    weights = np.array([complex(f(complex(z))) for z in e.points])
    return e._weighted_sum(weights)


def _block_norms(m: np.ndarray, row_offsets: np.ndarray,
                 col_offsets: np.ndarray) -> np.ndarray:
    """Frobenius norms of the blocks cut at ``cumsum((0,) + ranks)``."""
    return np.sqrt(np.add.reduceat(np.add.reduceat(
        np.abs(m) ** 2, row_offsets[:-1], axis=0), col_offsets[:-1], axis=1))


def _factored_invariants(e: _AtomStore) -> tuple[float, float, float, float]:
    stacked = e.stacked_basis()
    gram = stacked.conj().T @ stacked
    total_rank = gram.shape[0]
    defect = gram - np.eye(total_rank)
    completeness = float(np.linalg.norm(defect)) if total_rank == e.dim else \
        float(np.sqrt(np.linalg.norm(defect) ** 2 + abs(e.dim - total_rank)))
    offsets = np.cumsum((0,) + e.ranks)
    blocks = _block_norms(defect, offsets, offsets)
    # ||u_i* u_i - I|| on the diagonal, ||u_i* u_j|| above it
    idem = float(np.max(np.diagonal(blocks)))
    ortho = float(np.max(np.triu(blocks, 1)))
    herm = max(float(np.linalg.norm(p - p.conj().T))
               for p in (e.projection(i).array for i in range(e.num_atoms)))
    return idem, herm, ortho, completeness


def _dense_invariants(e: _AtomStore) -> tuple[float, float, float, float]:
    mats = [e.projection(i).array for i in range(e.num_atoms)]
    idem = max(float(np.linalg.norm(p @ p - p)) for p in mats)
    herm = max(float(np.linalg.norm(p - p.conj().T)) for p in mats)
    ortho = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ortho = max(ortho, float(np.linalg.norm(mats[i] @ mats[j])))
    total = sum(mats)
    completeness = float(np.linalg.norm(total - np.eye(e.dim)))
    return idem, herm, ortho, completeness


def _store_checks(e: _AtomStore, tol: Tolerances) -> list[tuple]:
    """Projection system checks shared by measures and product measures.

    Records, in order, for idempotency, hermitian_defect, orthogonality,
    completeness (each held to ``10 rel(n)``) and rank_deficit (held to
    zero).
    """
    bound = PVM_FACTOR * tol.rel(e.dim)
    if e.bases is not None:
        idem, herm, ortho, completeness = _factored_invariants(e)
    else:
        idem, herm, ortho, completeness = _dense_invariants(e)
    return [
        ("idempotency", idem, bound),
        ("hermitian_defect", herm, bound),
        ("orthogonality", ortho, bound),
        ("completeness", completeness, bound),
        ("rank_deficit", float(abs(sum(e.ranks) - e.dim)), 0.0),
    ]


def pvm_validate(e: SpectralMeasure, tol: Tolerances | None = None) -> VerificationReport:
    """Check the defining invariants of a projection valued measure.

    Reports idempotency, Hermitian defect, mutual orthogonality, and
    completeness residuals (all Frobenius, each held to ``10 rel(n)``),
    the total rank deficit against the space dimension, and the minimum
    pairwise atom gap against the clustering radius.  Always returns a
    report.
    """
    tol = _resolve(tol)
    if e.num_atoms > 1:
        pts = e.points
        gaps = np.abs(pts[:, None] - pts[None, :])
        min_gap = float(np.min(gaps[~np.eye(e.num_atoms, dtype=bool)]))
    else:
        min_gap = float("inf")
    radius = tol.cluster_radius(e.support_radius)
    return VerificationReport.from_checks(_store_checks(e, tol) + [
        ("min_point_gap", min_gap, radius, min_gap > radius)])
