"""Products of commuting spectral measures and pushforwards of atoms.

Given commuting measures E1 (supported on the real line) and E2, the
product measure places an atom at every pair (t_i, w_j) whose projection
product P_i Q_j survives pruning; for commuting measures that product
is itself an orthogonal projection onto the intersection of ranges.
Pushing the atoms forward through a map phi merges images that land
within the clustering radius, which is how a spectral measure for the
original operator is reassembled from the pair measure via
phi(t, w) = w / t.  Everything here but validation and integration works
on atom bases, so it takes factored measures: a measure read from a
file holds dense projections and is refused with a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, NotCommuting
from .linalg import (
    ATOL,
    OperatorMatrix,
    Tolerances,
    _column_stack,
    _jacobi_one_sided,
    _ranges,
    _size_groups,
    rel,
)
from .measures import (
    PVM_FACTOR,
    SpectralMeasure,
    _AtomStore,
    _block_norms,
    _merged,
    _range_gap,
    _store_checks,
    pvm_integrate,
)
from .report import VerificationReport

__all__ = [
    "ProductMeasure",
    "commute_check",
    "product_measure",
    "fubini_check",
    "pushforward",
    "marginal_residuals",
    "product_validate",
]

@dataclass(frozen=True, eq=False)
class ProductMeasure(_AtomStore):
    """Joint measure of a commuting pair, atoms indexed by (t, w) pairs.

    ``t_points`` are real (the first factor lives on the real line),
    ``w_points`` complex.  Projections are stored factored (one stacked
    basis, as ``product_measure`` builds them) or dense (one k x n x n
    array, as read from a file, only validated, integrated and written)
    in the atom store shared with SpectralMeasure.
    ``rectangle_residual`` is the largest deviation of
    a stored projection from the literal product P_i Q_j, measured at
    construction time.
    """

    dim: int
    t_points: np.ndarray
    w_points: np.ndarray
    bases: tuple | None = None
    projections: np.ndarray | tuple | None = None
    rectangle_residual: float | None = None

    def __post_init__(self):
        ts = np.array(self.t_points, dtype=np.float64, copy=True)
        ws = np.array(self.w_points, dtype=np.complex128, copy=True)
        if ts.ndim != 1 or ws.ndim != 1 or ts.size != ws.size or ts.size == 0:
            raise DimensionMismatch("t and w point lists must match and be nonempty")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ws.view(np.float64)))):
            raise NonFiniteValue("atom points must be finite")
        ts.setflags(write=False)
        ws.setflags(write=False)
        object.__setattr__(self, "t_points", ts)
        object.__setattr__(self, "w_points", ws)
        self._store_atoms(ts.size)

    def _atom_label(self, i: int) -> str:
        return f"t={float(self.t_points[i])}, w={complex(self.w_points[i])}"

    def integrate(self, g) -> OperatorMatrix:
        """``sum g(t_k, w_k) Pi_k`` for a scalar function of the pair."""
        return OperatorMatrix(self._weighted_sum(np.array([
            complex(g(float(t), complex(w)))
            for t, w in zip(self.t_points, self.w_points)])))


def _basis_defects(stacked: np.ndarray, off: np.ndarray) -> np.ndarray:
    """``||u_k* u_k - I||_F`` of every atom, one batched product per rank.

    A rank held by one atom takes its columns as a view, not a gathered
    copy, and I comes off each Gram matrix's diagonal in place.
    """
    ranks = np.diff(off)
    defects = np.empty(ranks.size)
    for r, starts in _size_groups(off):
        u = _column_stack(stacked, starts, r)
        gram = u.conj().transpose(0, 2, 1) @ u
        gram.reshape(starts.size, -1)[:, ::r + 1] -= 1.0
        defects[ranks == r] = np.linalg.norm(gram, axis=(1, 2))
    return defects


def _pairs(e1: SpectralMeasure, e2: SpectralMeasure, floor: float):
    """Atom pairs whose cross block mass is above ``floor``, row-major.

    Yields ``(i, j, u_i, w_j, C, mass)``: atom i of the first factor with
    its basis u_i, atom j of the second with w_j, their cross block
    C = u_i* w_j and its Frobenius norm ``mass``, the three arrays as
    views.  Block masses of ``S1* S2`` come from one reduction over the
    stacked bases.  The pair algebra needs orthonormal bases, so each
    atom's ``||u* u - I||_F`` is measured once first and
    DimensionMismatch names the first atom whose defect exceeds the
    commutation threshold.
    """
    limit = _commute_threshold(e1.dim)
    s1 = e1.stacked_basis()
    s2 = e2.stacked_basis()
    off1, off2 = e1.offsets, e2.offsets
    for name, s, off in (("e1", s1, off1), ("e2", s2, off2)):
        defects = _basis_defects(s, off)
        k = int(np.argmax(defects > limit))
        if defects[k] > limit:
            raise DimensionMismatch(
                f"factor {name} atom {k} has no orthonormal basis: "
                f"||u* u - I||_F = {defects[k]:.3e}, beyond {limit:.3e}")
    cross = s1.conj().T @ s2
    masses = _block_norms(cross, off1, off2)
    for i, j in zip(*np.nonzero(masses > floor)):
        rows = slice(off1[i], off1[i + 1])
        cols = slice(off2[j], off2[j + 1])
        yield (i, j, s1[:, rows], s2[:, cols], cross[rows, cols],
               float(masses[i, j]))


def _outside_norm(ui: np.ndarray, wj: np.ndarray, block: np.ndarray) -> float:
    """``||D C*||_F`` for ``C = u_i* w_j`` and ``D = w_j - u_i C``.

    D is the part of range(Q_j) outside range(P_i).  Formed as an n x r_j
    product, it carries no cancellation, unlike the equal Gram-trace
    form ``sum sigma^2 (1 - sigma^2)`` over the principal cosines.  When
    w_j is one column, D C* is an outer product of norm ``||D|| ||C||``,
    so no n x r_i array is formed.
    """
    d = wj - ui @ block
    if wj.shape[1] == 1:
        return float(np.linalg.norm(d) * np.linalg.norm(block))
    return float(np.linalg.norm(d @ block.conj().T))


def _intersection(ui: np.ndarray, block: np.ndarray, outside: float):
    """``(z, ||z z* - P_i Q_j||_F)`` for the intersection of two ranges.

    Left singular vectors of the cross block C with singular value near
    1 span range(P_i) and range(Q_j) in common: one one-sided solve
    C V = G gives them as y = G/s on the columns with s^2 > 1/4.  The
    gap is ``hypot(||y y* - C C*||_F, outside)`` for z = u_i y and
    outside = ``||D C*||_F``.  None when no singular value is near 1.
    When either side has rank one, C's one singular value is ``||C||``,
    so no solve is needed: y is 1 or ``C / ||C||``, and
    ``||y y* - C C*||_F = |1 - ||C||^2|``.
    """
    if min(block.shape) == 1:
        norm = float(np.linalg.norm(block))
        if norm * norm <= 0.25:
            return None
        z = ui if ui.shape[1] == 1 else ui @ block / norm
        return z, float(np.hypot(1.0 - norm * norm, outside))
    s, g = _jacobi_one_sided(block)
    keep = s * s > 0.25
    if not keep.any():
        return None
    y = g[:, keep] / s[keep]
    inside = float(np.linalg.norm(y @ y.conj().T - block @ block.conj().T))
    return ui @ y, float(np.hypot(inside, outside))


def _commute_threshold(n: int) -> float:
    """Commutator norm above which two projections do not commute."""
    return PVM_FACTOR * rel(n) + ATOL


def commute_check(e1: SpectralMeasure, e2: SpectralMeasure) -> bool:
    """True when every projection of e1 commutes with every one of e2.

    For P = u u* and Q = w w* with orthonormal u and w, C = u* w and
    D = w - u C, ``||P Q - Q P||_F = sqrt(2) ||D C*||_F``: the commutator
    is ``P Q (I - P) - (I - P) Q P``, two Frobenius-orthogonal terms, and
    ``(I - P) Q P = D C* u*`` (principal angles between subspaces:
    Bjorck & Golub 1973).  So each pair costs O(n r_i r_j).  The
    commutator norm is at most twice the mass ``||C||_F``, so pairs
    below a quarter of the threshold are accepted unmeasured.  Raises
    DimensionMismatch when an atom basis is not orthonormal.
    """
    if e1.dim != e2.dim:
        raise DimensionMismatch("measures act on different dimensions")
    threshold = _commute_threshold(e1.dim)
    return all(np.sqrt(2.0) * _outside_norm(ui, wj, block) <= threshold
               for _, _, ui, wj, block, _ in _pairs(e1, e2, threshold / 4.0))


def product_measure(e1: SpectralMeasure, e2: SpectralMeasure) -> ProductMeasure:
    """Product of commuting measures, one atom per surviving pair.

    The first factor must be supported on the real line.  Pairs are
    screened as ``commute_check`` screens them, at a quarter of the
    commutation threshold: below it ``||P_i Q_j||_F`` is far under the
    1/2 that an intersection needs.  For each pair above it the
    projection onto the intersection of ranges, if any, is
    extracted from the singular structure of the cross block
    C = u_i* w_j, and its deviation from the literal product P_i Q_j is
    re-measured.  All of it stays in the rank space (Bjorck & Golub
    1973): with D = w_j - u_i C and the atom basis z = u_i y,

    - ``||P_i Q_j - Q_j P_i||_F = sqrt(2) ||D C*||_F`` (see
      ``commute_check``), and
    - ``||z z* - P_i Q_j||_F = hypot(||y y* - C C*||_F, ||D C*||_F)``,
      splitting the gap into its part inside P_i and its
      ``P_i Q_j (I - P_i)`` part.

    Both identities need orthonormal atom bases, so each pair costs
    O(n r_i r_j) and no n x n product is formed.  A pair with a side of
    rank one takes its intersection in closed form; only a pair whose
    atoms both have rank two or more gets a one-sided Jacobi solve of
    its cross block (``_intersection``).  Refusals name the first
    failing pair in row-major order.  Raises DimensionMismatch unless
    both factors resolve the identity of the same space (atom ranks
    summing to the dimension, every atom basis orthonormal), and
    NotCommuting when the measures fail the commutation test or when a
    product refuses to behave like a projection.
    """
    if e1.dim != e2.dim:
        raise DimensionMismatch("measures act on different dimensions")
    n = e1.dim
    for name, e in (("e1", e1), ("e2", e2)):
        if sum(e.ranks) != n:
            raise DimensionMismatch(
                f"factor {name} is not a resolution of the identity: its "
                f"atom ranks sum to {sum(e.ranks)}, not the dimension {n}")
    if float(np.max(np.abs(e1.points.imag))) > ATOL:
        raise ValueError("the first factor must be supported on the real line")
    threshold = _commute_threshold(n)
    ii, jj, zs = [], [], []
    rectangle = 0.0
    # A pair that commutes has P_i Q_j near a projection, so "no stable
    # intersection" only follows a pair that failed the commute test.
    for i, j, ui, wj, block, mass in _pairs(e1, e2, threshold / 4.0):
        outside = _outside_norm(ui, wj, block)
        if np.sqrt(2.0) * outside > threshold:
            raise NotCommuting("projections of the two measures do not commute")
        atom = _intersection(ui, block, outside)
        if atom is None:
            if mass > 0.1:
                raise NotCommuting(
                    f"pair ({i}, {j}) has projection product mass "
                    f"{mass:.3e} but no stable intersection")
            continue
        z, gap = atom
        rectangle = max(rectangle, gap)
        ii.append(i)
        jj.append(j)
        zs.append(z)
    if not zs:
        raise NotCommuting("no atom pair survived pruning")
    bound = PVM_FACTOR * rel(n)
    if rectangle > bound:
        raise NotCommuting(
            f"product projections deviate from P_i Q_j by {rectangle:.3e}, "
            f"beyond {bound:.3e}"
        )
    # the views keep the cross matrix alive until the atom bases are joined
    ui = wj = block = None
    return ProductMeasure(n, e1.points.real[ii], e2.points[jj],
                          bases=tuple(zs), rectangle_residual=rectangle)


def marginal_residuals(prod: ProductMeasure, e1: SpectralMeasure,
                       e2: SpectralMeasure) -> tuple[float, float]:
    """Largest Frobenius gaps of the two marginal sums.

    Summing product projections over j must recover P_i, and over i
    must recover Q_j.  Product atoms join a factor atom by exact point
    equality.  With Z the stacked bases of the product atoms over a
    factor atom, the gap ``||Z Z* - P_i||_F`` is taken in the rank space
    (``_range_gap``), which assumes orthonormal atom bases.
    """
    stacked, offsets = prod.stacked_basis(), prod.offsets
    ranks = np.diff(offsets)

    def gap(keys: np.ndarray, points: np.ndarray, e: SpectralMeasure) -> float:
        worst = 0.0
        for i, point in enumerate(points):
            atoms = np.flatnonzero(keys == point)
            z = stacked[:, _ranges(offsets[atoms], ranks[atoms])]
            worst = max(worst, _range_gap(e.basis(i), z))
        return worst

    return (gap(prod.t_points, e1.points.real, e1),
            gap(prod.w_points, e2.points, e2))


def product_validate(prod: ProductMeasure) -> VerificationReport:
    """Projection system invariants of a product measure.

    Same residuals as ``pvm_validate`` (atom distinctness aside, since
    product atoms are indexed by pairs), plus the stored rectangle
    residual when available.
    """
    checks = _store_checks(prod)
    if prod.rectangle_residual is not None:
        checks.append(("rectangle", float(prod.rectangle_residual),
                       PVM_FACTOR * rel(prod.dim)))
    return VerificationReport.from_checks(checks)


def fubini_check(f1, f2, e1: SpectralMeasure, e2: SpectralMeasure,
                 prod: ProductMeasure) -> float:
    """Residual of the iterated-integral identity.

    Compares ``(integral of f1 dE1)(integral of f2 dE2)`` against the
    joint sum ``sum f1(t_i) f2(w_j) Pi_ij`` and returns the Frobenius
    gap.  Raises NonFiniteValue when either integrand blows up on an
    atom.
    """
    lhs = pvm_integrate(lambda z: f1(z.real), e1).array @ \
        pvm_integrate(f2, e2).array
    rhs = prod.integrate(lambda t, w: complex(f1(t)) * complex(f2(w))).array
    return float(np.linalg.norm(lhs - rhs))


def pushforward(prod: ProductMeasure, phi,
                tol: Tolerances | None = None) -> SpectralMeasure:
    """Image measure of a product measure under ``phi(t, w)``.

    Image points that cluster (``_clusters``, by the rule for T's atoms:
    ``tol.cluster`` when given) merge into one atom at their
    rank-weighted mean, with the member projections summed (their bases
    concatenated).  Raises NonFiniteValue when phi is not finite
    on some atom.
    """
    images = []
    for t, w in zip(prod.t_points, prod.w_points):
        value = complex(phi(float(t), complex(w)))
        if not (np.isfinite(value.real) and np.isfinite(value.imag)):
            raise NonFiniteValue(
                f"pushforward map is not finite at (t={float(t)}, w={complex(w)})"
            )
        images.append(value)
    return _merged(np.array(images, dtype=np.complex128), prod.stacked_basis(),
                   prod.offsets, None if tol is None else tol.cluster)
