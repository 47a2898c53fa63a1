"""Products of commuting spectral measures and pushforwards of atoms.

Given commuting measures E1 (supported on the real line) and E2, the
product measure places an atom at every pair (t_i, w_j) whose projection
product P_i Q_j survives pruning; for commuting measures that product
is itself an orthogonal projection onto the intersection of ranges.
Pushing the atoms forward through a map phi merges images that land
within the clustering radius, which is how a spectral measure for the
original operator is reassembled from the pair measure via
phi(t, w) = w / t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, NotCommuting
from .linalg import (
    OperatorMatrix,
    Tolerances,
    _clusters,
    _jacobi_hermitian,
    _ranges,
    _resolve,
)
from .measures import (
    PVM_FACTOR,
    SpectralMeasure,
    _AtomStore,
    _block_norms,
    _Blocks,
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

# Atoms whose projection product has Frobenius mass below 1e-10 * n are
# dropped as numerical dust.
PRUNE_FACTOR = 1e-10

# Pairs whose smaller side has rank one are reduced about this many
# columns at a time, which bounds their n x columns temporaries.
_CHUNK = 64


@dataclass(frozen=True, eq=False)
class ProductMeasure(_AtomStore):
    """Joint measure of a commuting pair, atoms indexed by (t, w) pairs.

    ``t_points`` are real (the first factor lives on the real line),
    ``w_points`` complex.  Projections are stored factored (one stacked
    basis) or dense (one k x n x n array) in the atom store shared with
    SpectralMeasure.  ``rectangle_residual`` is the largest deviation of
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
        return self._weighted_sum(np.array([
            complex(g(float(t), complex(w)))
            for t, w in zip(self.t_points, self.w_points)]))


def _basis_defects(stacked: np.ndarray, off: np.ndarray) -> np.ndarray:
    """``||u_k* u_k - I||_F`` of every atom, one batched product per rank."""
    ranks = np.diff(off)
    defects = np.empty(ranks.size)
    for r in set(ranks.tolist()):
        atoms = np.flatnonzero(ranks == r)
        u = stacked[:, off[atoms, None] + np.arange(r)].transpose(1, 0, 2)
        defects[atoms] = np.linalg.norm(
            u.conj().transpose(0, 2, 1) @ u - np.eye(r), axis=(1, 2))
    return defects


@dataclass(frozen=True, eq=False)
class _Pairs:
    """Atom pairs of two factors whose cross block mass passes a floor.

    Pair k joins atom ``i[k]`` of the first factor, with the columns
    ``s1[:, off1[i]:off1[i + 1]]``, and atom ``j[k]`` of the second; its
    cross block C = u_i* w_j is cut from ``cross = s1* s2`` and has
    Frobenius norm ``mass[k]``.  Pairs are in row-major order, and
    ``single`` marks those whose smaller side has rank one.
    """

    s1: np.ndarray
    s2: np.ndarray
    off1: np.ndarray
    off2: np.ndarray
    cross: np.ndarray
    i: np.ndarray
    j: np.ndarray
    mass: np.ndarray
    single: np.ndarray

    def block(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u_i, w_j, C)`` of pair k, as views."""
        i, j = self.i[k], self.j[k]
        rows = slice(self.off1[i], self.off1[i + 1])
        cols = slice(self.off2[j], self.off2[j + 1])
        return self.s1[:, rows], self.s2[:, cols], self.cross[rows, cols]


def _screened_pairs(e1: SpectralMeasure, e2: SpectralMeasure, floor: float,
                    tol: Tolerances | None = None) -> _Pairs:
    """The pairs with cross block mass above ``floor``.

    Block masses of ``S1* S2`` come from one reduction over the stacked
    bases.  The pair algebra needs orthonormal bases, so each atom's
    ``||u* u - I||_F`` is measured once first and DimensionMismatch names
    the first atom whose defect exceeds the commutation threshold.
    """
    limit = _commute_threshold(e1.dim, _resolve(tol))
    s1 = e1.stacked_basis()
    s2 = e2.stacked_basis()
    off1 = np.cumsum((0,) + e1.ranks)
    off2 = np.cumsum((0,) + e2.ranks)
    for name, s, off in (("e1", s1, off1), ("e2", s2, off2)):
        defects = _basis_defects(s, off)
        k = int(np.argmax(defects > limit))
        if defects[k] > limit:
            raise DimensionMismatch(
                f"factor {name} atom {k} has no orthonormal basis: "
                f"||u* u - I||_F = {defects[k]:.3e}, beyond {limit:.3e}")
    cross = s1.conj().T @ s2
    masses = _block_norms(cross, off1, off2)
    i, j = np.nonzero(masses > floor)
    single = np.minimum(np.diff(off1)[i], np.diff(off2)[j]) == 1
    return _Pairs(s1, s2, off1, off2, cross, i, j, masses[i, j], single)


def _rank_one(pairs: _Pairs, sel: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(||C||^2, ||D C*||_F, gap, z)`` of the pairs ``sel``, all ``single``.

    With x the one column of the smaller side and Y the orthonormal
    columns of the other, C is a vector, g = Y* x (C or its adjoint), and
    the intersection needs no solve: the Gram matrix on the smaller side
    is ``||C||^2``, z is u_i when x = u_i and u_i C / ||C|| otherwise, and
    ``||D C*||_F = ||C|| ||x - Y g||``, both equal to
    ``||C|| sqrt(1 - ||C||^2)``, with x - Y g formed as a difference of
    vectors, so without cancellation.  Pairs are reduced ``_CHUNK``
    columns of Y at a time.  As in ``_intersection``, the gap
    ``||z z* - P_i Q_j||_F`` is ``hypot(|1 - ||C||^2|, ||D C*||_F)``, and z
    is an atom basis only when ``||C||^2 > 1/4``.
    """
    i, j = pairs.i[sel], pairs.j[sel]
    a1, a2 = pairs.off1[i], pairs.off2[j]
    r1, r2 = pairs.off1[i + 1] - a1, pairs.off2[j + 1] - a2
    normsq = np.empty(sel.size)
    outside = np.empty(sel.size)
    z = np.empty((pairs.s1.shape[0], sel.size), dtype=np.complex128)
    for x_is_u, sx, ax, sy, ay, ry in ((True, pairs.s1, a1, pairs.s2, a2, r2),
                                       (False, pairs.s2, a2, pairs.s1, a1, r1)):
        side = np.flatnonzero((r1 == 1) == x_is_u)
        if not side.size:
            continue
        lengths = ry[side]
        starts = np.cumsum(lengths) - lengths
        ycols = _ranges(ay[side], lengths)
        xrep = np.repeat(ax[side], lengths)
        g = (pairs.cross[xrep, ycols].conj() if x_is_u
             else pairs.cross[ycols, xrep])
        normsq[side] = np.add.reduceat(g.real ** 2 + g.imag ** 2, starts)
        cuts = np.flatnonzero(np.diff(starts // _CHUNK)) + 1
        for chunk in np.split(np.arange(side.size), cuts):
            first = starts[chunk[0]]
            terms = slice(first, starts[chunk[-1]] + lengths[chunk[-1]])
            yg = np.add.reduceat(sy[:, ycols[terms]] * g[terms],
                                 starts[chunk] - first, axis=1)
            x = sx[:, ax[side[chunk]]]
            norm_c = np.sqrt(normsq[side[chunk]])
            outside[side[chunk]] = norm_c * np.linalg.norm(x - yg, axis=0)
            z[:, side[chunk]] = x if x_is_u else yg / norm_c
    return normsq, outside, np.hypot(1.0 - normsq, outside), z


def _outside_norm(ui: np.ndarray, wj: np.ndarray, block: np.ndarray) -> float:
    """``||D C*||_F`` for ``C = u_i* w_j`` and ``D = w_j - u_i C``.

    D is the part of range(Q_j) outside range(P_i).  Formed as an n x r_j
    product, it carries no cancellation, unlike the equal Gram-trace
    form ``sum sigma^2 (1 - sigma^2)`` over the principal cosines.
    """
    return float(np.linalg.norm((wj - ui @ block) @ block.conj().T))


def _intersection(ui: np.ndarray, block: np.ndarray, outside: float,
                  tol: Tolerances):
    """``(z, ||z z* - P_i Q_j||_F)`` for the intersection of two ranges.

    Singular vectors of the cross block C with singular value near 1
    span range(P_i) and range(Q_j) in common; the Gram matrix is taken
    on the smaller side.  The gap is ``hypot(||y y* - C C*||_F,
    outside)`` for z = u_i y and outside = ``||D C*||_F``.  None when
    no singular value is near 1.
    """
    wide = block.shape[0] <= block.shape[1]
    gram = block @ block.conj().T if wide else block.conj().T @ block
    s2, x = _jacobi_hermitian(gram, tol.atol)
    keep = s2 > 0.25
    if not keep.any():
        return None
    if wide:
        y = x[:, keep]
        z = ui @ y
    else:
        y = block @ x[:, keep]
        z = ui @ y / np.sqrt(s2[keep])
        y /= np.sqrt(s2[keep])
    inside = float(np.linalg.norm(y @ y.conj().T - block @ block.conj().T))
    return z, float(np.hypot(inside, outside))


def _commute_threshold(n: int, tol: Tolerances) -> float:
    """Commutator norm above which two projections do not commute."""
    return PVM_FACTOR * tol.rel(n) + tol.atol


def commute_check(e1: SpectralMeasure, e2: SpectralMeasure,
                  tol: Tolerances | None = None) -> bool:
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
    tol = _resolve(tol)
    if e1.dim != e2.dim:
        raise DimensionMismatch("measures act on different dimensions")
    threshold = _commute_threshold(e1.dim, tol)
    pairs = _screened_pairs(e1, e2, threshold / 4.0, tol)
    _, outside, _, _ = _rank_one(pairs, np.flatnonzero(pairs.single))
    if np.any(np.sqrt(2.0) * outside > threshold):
        return False
    return all(np.sqrt(2.0) * _outside_norm(*pairs.block(k)) <= threshold
               for k in np.flatnonzero(~pairs.single))


def product_measure(e1: SpectralMeasure, e2: SpectralMeasure,
                    tol: Tolerances | None = None) -> ProductMeasure:
    """Product of commuting measures, one atom per surviving pair.

    The first factor must be supported on the real line.  For each pair
    with ``||P_i Q_j||_F`` above the pruning threshold ``1e-10 n`` the
    projection onto the intersection of ranges is
    extracted from the singular structure of the cross Gram block
    C = u_i* w_j, and its deviation from the literal product P_i Q_j is
    re-measured.  All of it stays in the rank space (Bjorck & Golub
    1973): with D = w_j - u_i C and the atom basis z = u_i y,

    - ``||P_i Q_j - Q_j P_i||_F = sqrt(2) ||D C*||_F`` (see
      ``commute_check``), and
    - ``||z z* - P_i Q_j||_F = hypot(||y y* - C C*||_F, ||D C*||_F)``,
      splitting the gap into its part inside P_i and its
      ``P_i Q_j (I - P_i)`` part.

    Both identities need orthonormal atom bases, so each pair costs
    O(n r_i r_j) and no n x n product is formed.  A pair whose smaller
    side has rank one needs no solve (``_rank_one``), and all such pairs
    are taken in a few array passes; only a pair whose atoms both have
    rank two or more gets a Jacobi solve of its Gram block
    (``_intersection``).  Refusals name the first failing pair in
    row-major order, whichever path it takes.  Raises
    DimensionMismatch unless both factors resolve the identity of the
    same space (atom ranks summing to the dimension, every atom basis
    orthonormal), and NotCommuting when the measures fail the
    commutation test or when a product refuses to behave like a
    projection.
    """
    tol = _resolve(tol)
    if e1.dim != e2.dim:
        raise DimensionMismatch("measures act on different dimensions")
    n = e1.dim
    for name, e in (("e1", e1), ("e2", e2)):
        if sum(e.ranks) != n:
            raise DimensionMismatch(
                f"factor {name} is not a resolution of the identity: its "
                f"atom ranks sum to {sum(e.ranks)}, not the dimension {n}")
    if float(np.max(np.abs(e1.points.imag))) > tol.atol:
        raise ValueError("the first factor must be supported on the real line")
    threshold = _commute_threshold(n, tol)
    prune = PRUNE_FACTOR * n
    # A pair that commutes has P_i Q_j near a projection, so "no stable
    # intersection" only follows a pair that failed the commute test.
    screen = threshold / 4.0
    pairs = _screened_pairs(e1, e2, min(prune, screen), tol)
    mass = pairs.mass
    clash = np.zeros(mass.size, dtype=bool)
    lost = np.zeros(mass.size, dtype=bool)
    kept = np.zeros(mass.size, dtype=bool)
    gaps = np.zeros(mass.size)
    one = np.flatnonzero(pairs.single)
    normsq, outside, gap, z = _rank_one(pairs, one)
    gaps[one] = gap
    clash[one] = (mass[one] > screen) & (np.sqrt(2.0) * outside > threshold)
    lost[one] = (mass[one] > prune) & (normsq <= 0.25) & (mass[one] > 0.1)
    kept[one] = (mass[one] > prune) & (normsq > 0.25)
    # the other pairs in row-major order, up to the first rank-one failure
    stop = int(np.argmax(clash | lost)) if (clash | lost).any() else mass.size
    solved = {}
    for k in np.flatnonzero(~pairs.single[:stop]).tolist():
        ui, wj, block = pairs.block(k)
        out_k = _outside_norm(ui, wj, block)
        clash[k] = mass[k] > screen and np.sqrt(2.0) * out_k > threshold
        if clash[k]:
            break
        if mass[k] <= prune:
            continue
        atom = _intersection(ui, block, out_k, tol)
        if atom is None:
            lost[k] = mass[k] > 0.1
            if lost[k]:
                break
            continue
        solved[k], gaps[k] = atom
        kept[k] = True
    failed = np.flatnonzero(clash | lost)
    if failed.size:
        k = failed[0]
        if clash[k]:
            raise NotCommuting("projections of the two measures do not commute")
        raise NotCommuting(
            f"pair ({pairs.i[k]}, {pairs.j[k]}) has projection product mass "
            f"{mass[k]:.3e} but no stable intersection"
        )
    if not kept.any():
        raise NotCommuting("no atom pair survived pruning")
    rectangle = float(gaps[kept].max())
    bound = PVM_FACTOR * tol.rel(n)
    if rectangle > bound:
        raise NotCommuting(
            f"product projections deviate from P_i Q_j by {rectangle:.3e}, "
            f"beyond {bound:.3e}"
        )
    t_points = e1.points.real[pairs.i[kept]]
    w_points = e2.points[pairs.j[kept]]
    # the cross matrix goes before the atom bases are gathered
    ui = wj = block = None
    del pairs
    widths = kept.astype(np.intp)
    for k, zk in solved.items():
        widths[k] = zk.shape[1]
    offsets = np.cumsum(np.concatenate(([0], widths[kept])))
    slot = np.cumsum(kept) - 1  # a kept pair's place among the atoms
    stacked = np.empty((n, offsets[-1]), dtype=np.complex128)
    stable = kept[one]
    stacked[:, offsets[slot[one[stable]]]] = z[:, stable]
    del z
    for k, zk in solved.items():
        stacked[:, offsets[slot[k]]:offsets[slot[k] + 1]] = zk
    return ProductMeasure(n, t_points, w_points,
                          bases=_Blocks(stacked, offsets),
                          rectangle_residual=rectangle)


def marginal_residuals(prod: ProductMeasure, e1: SpectralMeasure,
                       e2: SpectralMeasure) -> tuple[float, float]:
    """Largest Frobenius gaps of the two marginal sums.

    Summing product projections over j must recover P_i, and over i
    must recover Q_j.
    """
    def gap(keys: np.ndarray, points: np.ndarray, e: SpectralMeasure) -> float:
        worst = 0.0
        for i, point in enumerate(points):
            acc = np.zeros((prod.dim, prod.dim), dtype=np.complex128)
            for k in np.flatnonzero(keys == point):
                acc += prod.projection(int(k)).array
            worst = max(worst, float(np.linalg.norm(acc - e.projection(i).array)))
        return worst

    return (gap(prod.t_points, e1.points.real, e1),
            gap(prod.w_points, e2.points, e2))


def product_validate(prod: ProductMeasure,
                     tol: Tolerances | None = None) -> VerificationReport:
    """Projection system invariants of a product measure.

    Same residuals as ``pvm_validate`` (atom distinctness aside, since
    product atoms are indexed by pairs), plus the stored rectangle
    residual when available.
    """
    tol = _resolve(tol)
    checks = _store_checks(prod, tol)
    if prod.rectangle_residual is not None:
        checks.append(("rectangle", float(prod.rectangle_residual),
                       PVM_FACTOR * tol.rel(prod.dim)))
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

    Image points that cluster (``_clusters``) merge into one atom at
    their rank-weighted mean, with the member projections summed (their
    bases concatenated).  Raises NonFiniteValue when phi is not finite
    on some atom.
    """
    tol = _resolve(tol)
    images = []
    for t, w in zip(prod.t_points, prod.w_points):
        value = complex(phi(float(t), complex(w)))
        if not (np.isfinite(value.real) and np.isfinite(value.imag)):
            raise NonFiniteValue(
                f"pushforward map is not finite at (t={float(t)}, w={complex(w)})"
            )
        images.append(value)
    images = np.array(images, dtype=np.complex128)
    members, offsets, _, _ = _clusters(images, tol)
    atom_offsets = np.cumsum((0,) + prod.ranks)
    ranks = np.diff(atom_offsets)[members]
    label = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    moments = images[members] * ranks
    sums = np.empty(offsets.size - 1, dtype=np.complex128)
    sums.real = np.bincount(label, moments.real)
    sums.imag = np.bincount(label, moments.imag)
    columns = _ranges(atom_offsets[members], ranks)
    return SpectralMeasure(prod.dim, sums / np.bincount(label, ranks),
                           bases=_Blocks(prod.stacked_basis()[:, columns],
                                         np.cumsum(np.append(0, ranks))[offsets]))
