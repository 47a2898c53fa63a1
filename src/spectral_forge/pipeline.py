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
||T||_2, E_A (the weights w on the columns of U) and B's local form L,
unitarily similar to B.  Since T, A and B share eigenvectors, U nearly
diagonalizes B, so E_B is solved warm from L.  B commutes with A, so
between different atoms of E_A that form holds rounding alone: it is
set to 0 there and E_B is solved on E_A's blocks, in a few sweeps.
Left in, the rounding would couple nearly equal eigenvalues of B across
E_A's atoms, and E_B would not commute with E_A.

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
from .errors import ScaleLimit
from .linalg import OperatorMatrix, Tolerances, _normal_eig, rel
from .measures import (PVM_FACTOR, SpectralMeasure, _measure_in_frame,
                       _merged, _range_gap, _reconstruction_check)
from .product import ProductMeasure, product_measure, pushforward
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
    u, r = d._unitary, d._local.shape[0]
    e1 = _merged(d._weights, u, np.arange(n + 1), of="A")
    # E_B on E_A's blocks by the default rule (a radius is T's alone):
    # E_A's points ascend, so each atom is a run of U's columns, in order.
    # L is 0 on T's null modes and between atoms; only the frozen wrapper
    # stays alive under E_B's solve
    atom = np.repeat(np.arange(e1.num_atoms), e1.ranks)
    local = np.zeros((n, n), dtype=np.complex128)
    local[:r, :r] = d._local
    local[atom[:, None] != atom] = 0.0
    local = OperatorMatrix(local)
    e2 = _measure_in_frame(local, u, of="B")
    del local  # one n x n array fewer under product_measure's peak
    prod = product_measure(e1, e2)
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
