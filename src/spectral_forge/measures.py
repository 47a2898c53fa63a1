"""Discrete projection valued measures on the complex plane.

A measure is a finite family of atoms: pairwise distinct points, each
carrying an orthogonal projection, with the projections mutually
orthogonal and summing to the identity.  Atoms built by this package
are stored as orthonormal column blocks of one eigenbasis; the dense
projection of an atom is materialized on demand as ``V V*``, which is
Hermitian by construction.  Measures loaded from files (or built by
hand, for example in tampering tests) keep their dense projections
verbatim, in one k x n x n array, so validation judges what was
supplied; such a measure is validated, integrated and written, never
solved on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .decomposition import RECONSTRUCTION_FACTOR
from .errors import DimensionMismatch, NonFiniteValue
from .linalg import (
    _BLOCK_BYTES,
    OperatorMatrix,
    Tolerances,
    _clusters,
    _norm,
    _radius,
    _ranges,
    _reach,
    _refuse_past_scale_limit,
    frobenius,
    normal_eig,
    rel,
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
OPERATORS = ("T", "A", "B")  # what a measure resolves: T, or T's A or B


class _Blocks(Sequence):
    """Atom bases as column blocks of one stacked array.

    Block k is the view ``stacked[:, offsets[k]:offsets[k + 1]]``, so a
    measure holds one basis array however many atoms it has.
    """

    def __init__(self, stacked: np.ndarray, offsets: np.ndarray):
        self.stacked = stacked
        self.offsets = offsets

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, k: int) -> np.ndarray:
        k = range(len(self))[k]  # negative indices and IndexError as a tuple's
        return self.stacked[:, self.offsets[k]:self.offsets[k + 1]]


class _AtomStore:
    """Atoms stored as orthonormal bases or as dense projections.

    Shared by SpectralMeasure and ProductMeasure, which are frozen
    dataclasses with ``dim``, ``bases`` and ``projections`` fields of
    their own.  Each checks its own points, then calls ``_store_atoms``;
    ``_atom_label`` names an atom's point in error messages.  Each
    layout is one read-only array with finite entries: bases given as
    blocks are copied into one stacked array (a fresh ``_Blocks`` from
    the package is kept as it is), dense projections into a k x n x n one.
    Dense atoms come from files (or by hand, in tampering tests) and are
    only validated, integrated and written: ``_factored`` refuses them.
    """

    def _store_atoms(self, count: int):
        if (self.bases is None) == (self.projections is None):
            raise ValueError("exactly one of bases and projections is required")
        if len(self.bases if self.bases is not None else self.projections) != count:
            raise DimensionMismatch("one basis or projection per atom is required")
        if self.bases is not None:
            blocks = self.bases
            if not isinstance(blocks, _Blocks):
                arrays = [np.asarray(b, dtype=np.complex128) for b in blocks]
                if any(b.ndim != 2 or b.shape[0] != self.dim or b.shape[1] == 0
                       for b in arrays):
                    raise DimensionMismatch("basis blocks must be dim x rank")
                blocks = _Blocks(np.concatenate(arrays, axis=1), np.cumsum(
                    [0] + [b.shape[1] for b in arrays]))
            stored, offsets = blocks.stacked, blocks.offsets
            object.__setattr__(self, "bases", blocks)
        else:
            mats = [np.asarray(p, dtype=np.complex128) for p in self.projections]
            if any(p.shape != (self.dim, self.dim) for p in mats):
                raise DimensionMismatch("projections must be dim x dim")
            stored = np.stack(mats)
            object.__setattr__(self, "projections", stored)
        if not np.isfinite(stored).all():
            raise NonFiniteValue("atom bases and projections must be finite")
        stored.setflags(write=False)
        if self.bases is None:
            traces = np.rint(np.trace(stored, axis1=1, axis2=2).real).tolist()
            offsets = np.cumsum([0] + [max(1, int(t)) for t in traces])
        object.__setattr__(self, "_offsets", offsets)

    @property
    def offsets(self) -> np.ndarray:
        """Atom k spans ``offsets[k]:offsets[k + 1]``; a dense atom's rank
        is its rounded trace, at least 1, so a zero one still counts."""
        return self._offsets

    @property
    def num_atoms(self) -> int:
        return self.offsets.size - 1

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(np.diff(self.offsets).tolist())

    def _factored(self) -> _Blocks:
        if self.bases is None:
            raise ValueError("atoms stored as dense projections have no basis")
        return self.bases

    def basis(self, i: int) -> np.ndarray:
        """Orthonormal columns spanning atom ``i`` (a view)."""
        return self._factored()[i]

    def stacked_basis(self) -> np.ndarray:
        """All atom bases side by side, in atom order (read-only)."""
        return self._factored().stacked

    def projection(self, i: int) -> OperatorMatrix:
        """Dense projection of atom ``i``."""
        if self.bases is not None:
            b = self.basis(i)
            return OperatorMatrix(b @ b.conj().T)
        return OperatorMatrix(self.projections[i])

    def _weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """``sum weights[k] P_k`` as a new array; NonFiniteValue names the
        first bad atom.

        Over a stacked basis S the sum ``(S z) S*`` is the conjugate of
        ``(conj(S) conj(z)) S^T``, formed into the one output in blocks of
        S's rows of at most ``_BLOCK_BYTES``, so it copies neither S* nor
        the weighted S; each entry is that of ``(S z) @ S*`` bit for bit,
        but for the sign of a zero.
        """
        bad = ~np.isfinite(weights.view(np.float64)).reshape(-1, 2).all(axis=1)
        if bad.any():
            where = int(np.argmax(bad))
            raise NonFiniteValue(
                f"integrand is not finite at atom {where} "
                f"({self._atom_label(where)})"
            )
        if self.bases is not None:
            stacked = self.stacked_basis()
            conj_weights = np.repeat(weights.conj(), self.ranks)
            out = np.empty((self.dim, self.dim), dtype=np.complex128)
            rows = max(1, _BLOCK_BYTES // (16 * stacked.shape[1]))
            for lo in range(0, self.dim, rows):
                np.matmul(stacked[lo:lo + rows].conj() * conj_weights,
                          stacked.T, out=out[lo:lo + rows])
            return np.conjugate(out, out=out)
        return (weights[:, None, None] * self.projections).sum(axis=0)


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
    projections : sequence of ndarray, optional
        Dense projections as read from a file, kept as one k x dim x dim
        array: validated, integrated and written, with no basis.
    of : str
        What the measure resolves: ``"T"``, or ``"A"`` or ``"B"`` of T's
        bounded pair; it picks the rule its points join by (``_reach``).
    cluster : float or None
        The absolute radius within which the atoms of this measure of T
        joined, as ``Tolerances.cluster`` gave it; None for the default
        rule.  ``pvm_validate`` judges the point gaps by it, so a measure
        is re-checked by the rule it was built with.  A measure of A or B
        joins by its own rule and carries none (ValueError).

    Exactly one of ``bases`` and ``projections`` must be given.
    """

    dim: int
    points: np.ndarray
    bases: tuple | None = None
    projections: np.ndarray | tuple | None = None
    of: str = "T"
    cluster: float | None = None

    def __post_init__(self):
        if self.of not in OPERATORS:
            raise ValueError(f"of must be T, A or B, got {self.of!r}")
        if self.cluster is not None:
            if self.of != "T":
                raise ValueError(f"a measure of {self.of} joins by its own "
                                 "rule and carries no cluster radius")
            # a float, so the radius a file holds reads back as it was
            object.__setattr__(self, "cluster", _radius(self.cluster))
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


def pvm_from_normal(m: OperatorMatrix, tol: Tolerances | None = None) -> SpectralMeasure:
    """Spectral measure of a normal matrix.

    Eigenvalues that cluster (``_clusters``; ``tol.cluster`` is one
    absolute radius when given, and the measure carries it) collapse
    into a single atom located at the cluster mean, whose projection
    spans all the member eigenvectors.  Raises NotNormal or
    NoConvergence from the underlying eigendecomposition.
    """
    es = normal_eig(m)
    del m  # a matrix handed over is freed under the merge's copy
    return _merged(es.eigenvalues, es.unitary.array, np.arange(es.dim + 1),
                   None if tol is None else tol.cluster)


def _merged(points: np.ndarray, stacked: np.ndarray, offsets: np.ndarray,
            cluster: float | None = None, of: str = "T") -> SpectralMeasure:
    """One atom per cluster of ``points`` (``_clusters``), the only merge.

    Point k carries ``stacked[:, offsets[k]:offsets[k + 1]]``; an atom sits
    at its members' rank-weighted mean and holds their bases side by side.
    Where that order is ``stacked``'s own, as for points that join in
    contiguous runs (E_A's ascending weights), and ``stacked`` is
    column-major, the layout of a gathered copy, by which products with
    an atom's columns round, the measure holds ``stacked`` itself,
    frozen, rather than a copy.  ``cluster``, T's radius as a float, is
    carried by the measure.
    """
    ranks = np.diff(offsets)
    members, groups, means = _clusters(points, cluster, ranks, of)
    ranks = ranks[members]
    columns = _ranges(offsets[members], ranks)
    if not (stacked.flags.f_contiguous
            and np.array_equal(columns, np.arange(stacked.shape[1]))):
        stacked = stacked[:, columns]
    return SpectralMeasure(stacked.shape[0], means, bases=_Blocks(
        stacked, np.cumsum(np.append(0, ranks))[groups]), of=of,
        cluster=cluster)


def pvm_integrate(f, e: SpectralMeasure) -> OperatorMatrix:
    """Integrate a scalar function against a measure: ``sum f(z_k) P_k``.

    Raises NonFiniteValue when f produces a NaN or infinity on an atom.
    """
    weights = np.array([complex(f(complex(z))) for z in e.points])
    return OperatorMatrix(e._weighted_sum(weights))


def _reconstruction_check(t: OperatorMatrix, e: SpectralMeasure) -> tuple:
    """``||sum z_k P_k - T||_F`` against ``100 rel(n) (1 + ||T||_F)``.

    The difference is formed in the one buffer of the sum.
    DimensionMismatch when the measure and T differ in dimension, and
    NonFiniteValue when the sum or its norm overflows.
    """
    if e.dim != t.dim:
        raise DimensionMismatch(f"dimension mismatch: {e.dim} versus {t.dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        residual = e._weighted_sum(e.points)
        residual -= t.array
        value = _norm(residual)
    if not np.isfinite(value):
        raise NonFiniteValue("sum z_k P_k - T overflows the float range")
    return ("reconstruction", value,
            RECONSTRUCTION_FACTOR * rel(t.dim) * (1.0 + frobenius(t)))


def _block_norms(m: np.ndarray, row_offsets: np.ndarray,
                 col_offsets: np.ndarray) -> np.ndarray:
    """Frobenius norms of the blocks cut at the given atom offsets."""
    return np.sqrt(np.add.reduceat(np.add.reduceat(
        np.abs(m) ** 2, row_offsets[:-1], axis=0), col_offsets[:-1], axis=1))


def _range_gap(u: np.ndarray, w: np.ndarray) -> float:
    """``||u u* - w w*||_F`` for orthonormal columns u and w.

    Taken in the rank space as ``hypot(||w - u (u* w)||_F,
    ||u - w (w* u)||_F)``, the parts of range(w) outside range(u) and of
    range(u) outside range(w), without cancellation.
    """
    return float(np.hypot(np.linalg.norm(w - u @ (u.conj().T @ w)),
                          np.linalg.norm(u - w @ (w.conj().T @ u))))


def _factored_invariants(e: _AtomStore) -> tuple[float, float, float, float]:
    stacked = e.stacked_basis()
    gram = stacked.conj().T @ stacked
    total_rank = gram.shape[0]
    defect = gram - np.eye(total_rank)
    completeness = float(np.linalg.norm(defect)) if total_rank == e.dim else \
        float(np.sqrt(np.linalg.norm(defect) ** 2 + abs(e.dim - total_rank)))
    blocks = _block_norms(defect, e.offsets, e.offsets)
    # ||u_i* u_i - I|| on the diagonal, ||u_i* u_j|| above it
    idem = float(np.max(np.diagonal(blocks)))
    ortho = float(np.max(np.triu(blocks, 1)))
    # U U* is Hermitian by construction
    return idem, 0.0, ortho, completeness


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack, summed as ``np.linalg.norm`` sums one."""
    flat = stack.reshape(len(stack), 1, -1)
    return np.sqrt(sum(x @ x.transpose(0, 2, 1) for x in (flat.real, flat.imag)))


def _dense_invariants(e: _AtomStore) -> tuple[float, float, float, float]:
    p = e.projections
    _refuse_past_scale_limit(p)  # before any product, which could overflow
    idem = _norms(p @ p - p).max()
    herm = _norms(p - p.conj().transpose(0, 2, 1)).max()
    # ||P_i P_j|| for j > i, one batched product per atom
    ortho = max((_norms(p[i] @ p[i + 1:]).max() for i in range(len(p) - 1)),
                default=0.0)
    completeness = np.linalg.norm(p.sum(axis=0) - np.eye(e.dim))
    return float(idem), float(herm), float(ortho), float(completeness)


def _store_checks(e: _AtomStore) -> list[tuple]:
    """Projection system checks shared by measures and product measures.

    Records, in order, for idempotency, hermitian_defect, orthogonality,
    completeness (each held to ``10 rel(n)``) and rank_deficit (held to
    zero).
    """
    bound = PVM_FACTOR * rel(e.dim)
    invariants = _factored_invariants if e.bases is not None else _dense_invariants
    idem, herm, ortho, completeness = invariants(e)
    return [
        ("idempotency", idem, bound),
        ("hermitian_defect", herm, bound),
        ("orthogonality", ortho, bound),
        ("completeness", completeness, bound),
        ("rank_deficit", float(abs(sum(e.ranks) - e.dim)), 0.0),
    ]


def pvm_validate(e: SpectralMeasure) -> VerificationReport:
    """Check the defining invariants of a projection valued measure.

    Reports idempotency, Hermitian defect, mutual orthogonality, and
    completeness residuals (all Frobenius, each held to ``10 rel(n)``),
    the total rank deficit, and ``min_point_gap``: the gap and join
    radius of the pair of atoms nearest to joining, by the rule the
    measure carries (``_reach``): its ``cluster``, one absolute radius,
    when set; else, by its ``of``, within 1e-8 of its own size above 100
    eps of the largest point (for A, 3e-8 plus 100 eps of its own size),
    never past ``Tolerances.cluster_radius``.  Every other bound is
    fixed.  To judge a measure by another radius, validate
    ``dataclasses.replace(e, cluster=r)``.  A single atom has no pair to
    keep apart, so its report has no gap record.  Factored atoms are
    judged from the Gram matrix of their stacked basis, their Hermitian
    defect 0 by construction; dense atoms are measured as stored.
    Always returns a report, save that a dense atom's entry past 2^128
    is refused with ScaleLimit before any product is formed.
    """
    checks = _store_checks(e)
    if e.num_atoms > 1:
        pts = e.points
        reach = _reach(np.abs(pts), e.cluster, e.of)
        gaps = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(gaps, np.inf)
        radii = np.maximum.outer(reach, reach)
        i, j = np.unravel_index(np.argmin(gaps - radii), gaps.shape)
        gap, radius = float(gaps[i, j]), float(radii[i, j])
        checks.append(("min_point_gap", gap, radius, gap > radius))
    return VerificationReport.from_checks(checks)
