"""End-to-end spectral resolution of a normal operator.

The route never diagonalizes the input directly: it decomposes T into
the bounded pair (A, B), takes the spectral measures of both, forms
their product, and pushes the product forward through
``phi(t, w) = w / t`` (with the guarded reciprocal at the origin).
Because A = (I + T*T)^(-1) and B = T A share eigenvectors with T, the
surviving joint atoms satisfy w / t = z for the corresponding
eigenvalue z of T, so the pushforward reassembles T's own measure.
A direct diagonalization of T is kept only as an optional cross check.

Exactly one Jacobi solve starts cold, the one for E_A.  Since T, A and
B share eigenvectors, A's eigenframe V nearly diagonalizes T*T and B:
||T||_2 is read off the Gram matrix of T V and E_B off V* B V, two warm
solves of matrices unitarily similar to their targets, which converge
in a few sweeps and would reach the same answer from any frame.

Accuracy degrades with the square of the operator norm once ||T||
passes 1e2 (the reciprocal map amplifies first-factor errors by
1 + |z|^2), which is why the pipeline refuses inputs beyond 1e6 unless
forced; the tolerance schedule below encodes exactly that growth.  The
guard needs no solve below the limit: ||T||_2 <= ||T||_F, so only an
input whose Frobenius norm passes ``NORM_LIMIT`` gets a cold
``op_norm_2`` to decide the refusal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .decomposition import Decomposition, _bounded_pair
from .errors import NotCommuting, ScaleLimit, SingularWeightWarning
from .linalg import (OperatorMatrix, Tolerances, _norm_in_frame, _resolve,
                     frobenius, op_norm_2)
from .measures import (PVM_FACTOR, SpectralMeasure, _measure_in_frame,
                       pvm_from_normal, pvm_integrate)
from .product import (SINGULAR_MARGIN, ProductMeasure, inverse_weight,
                      product_measure, pushforward)
from .report import VerificationReport

__all__ = [
    "PipelineResult",
    "spectral_theorem",
    "cross_check",
    "pipeline_tolerance",
    "NORM_LIMIT",
]

# Refuse inputs whose spectral norm exceeds this unless forced.  The
# smallest point of the first measure is 1/(1 + norm^2) and must clear
# the singular weight margin of about 1e-14 with two decades to spare.
NORM_LIMIT = 1e6

# Reconstruction budget: 1e-7 * n at moderate scale, growing with the
# squared norm past 1e2 as the reciprocal map amplifies atom errors.
PIPELINE_FACTOR = 1000.0
SCALE_KNEE = 100.0


def pipeline_tolerance(dim: int, source_norm: float,
                       tol: Tolerances | None = None) -> float:
    """Reconstruction tolerance schedule for the full pipeline."""
    tol = _resolve(tol)
    growth = max(1.0, (source_norm / SCALE_KNEE) ** 2)
    return PIPELINE_FACTOR * tol.rel(dim) * growth


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


def _realified(e: SpectralMeasure, atol: float) -> SpectralMeasure:
    """Zero the imaginary parts of near-real atom points."""
    drift = float(np.max(np.abs(e.points.imag)))
    if drift > atol:
        raise NotCommuting(
            f"first-factor measure has imaginary drift {drift:.3e} beyond {atol:.3e}"
        )
    return SpectralMeasure(e.dim, e.points.real.astype(np.complex128),
                           bases=e.bases, projections=e.projections)


def spectral_theorem(t: OperatorMatrix, tol: Tolerances | None = None, *,
                     direct_check: bool = False,
                     force_scale: bool = False) -> PipelineResult:
    """Resolve a normal operator into a discrete spectral measure.

    One Jacobi solve starts cold, E_A = ``pvm_from_normal(A)``.  Its
    stacked basis V is the frame for the other two: ``source_norm`` is
    the square root of the top eigenvalue of (T V)*(T V), and E_B is the
    measure of V* B V with its bases rotated back by V.  The norm guard
    runs first and solves nothing while ``||T||_F <= NORM_LIMIT``;
    past that it refuses on a cold ``op_norm_2`` above the limit.

    Parameters
    ----------
    t : OperatorMatrix
        Normal input.  NotNormal is raised otherwise, while building the
        pair; since the norm guard runs first, a non-normal input whose
        norm exceeds ``NORM_LIMIT`` raises ScaleLimit instead unless
        forced.
    tol : Tolerances, optional
    direct_check : bool
        Also diagonalize T directly and fold the atom-matching residuals
        into the report.
    force_scale : bool
        Proceed past the ``NORM_LIMIT`` conditioning refusal.

    Returns
    -------
    PipelineResult
        With a report carrying reconstruction and support residuals,
        counts of atoms whose weight hit the singular margin, and the
        cross-check residuals when requested.
    """
    tol = _resolve(tol)
    n = t.dim
    fro_t = frobenius(t)
    if fro_t > NORM_LIMIT and not force_scale:
        norm = op_norm_2(t, tol)
        if norm > NORM_LIMIT:
            raise ScaleLimit(
                f"operator norm {norm:.3e} exceeds {NORM_LIMIT:.0e}; "
                "the reciprocal map would amplify atom errors beyond recovery "
                "(pass force_scale=True to proceed anyway)"
            )
    a, b = _bounded_pair(t, tol)
    e1 = _realified(pvm_from_normal(a, tol), tol.atol)
    frame = e1.stacked_basis()
    source_norm = _norm_in_frame(t, frame, tol)
    e2 = _measure_in_frame(b, frame, tol)
    del frame  # one n x n array fewer under product_measure's peak
    d = Decomposition(a, b, source_norm)
    prod = product_measure(e1, e2, tol)
    eps_sing = SINGULAR_MARGIN * (1.0 + e1.support_radius)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SingularWeightWarning)
        measure = pushforward(
            prod, lambda x, w: inverse_weight(x, eps_sing) * w, tol)
        singular_hits = sum(
            1 for c in caught if issubclass(c.category, SingularWeightWarning))
    recon = float(np.linalg.norm(
        pvm_integrate(lambda z: z, measure).array - t.array))
    checks = [
        ("atom_count", float(measure.num_atoms), float(n),
         1 <= measure.num_atoms <= n),
        ("reconstruction", recon,
         pipeline_tolerance(n, source_norm, tol) * (1.0 + fro_t)),
        ("e2_support_excess", max(0.0, e2.support_radius - 0.5),
         PVM_FACTOR * tol.rel(n)),
        ("singular_weight_atoms", float(singular_hits), 0.0),
    ]
    direct = None
    if direct_check:
        direct = pvm_from_normal(t, tol)
        checks += _match_measures(measure, direct, tol, source_norm)
    report = VerificationReport.from_checks(checks)
    return PipelineResult(d, e1, e2, prod, measure, report, direct)


def _match_measures(result: SpectralMeasure, direct: SpectralMeasure,
                    tol: Tolerances, scale: float) -> list[tuple]:
    """Check records of a greedy nearest-pair matching of two atom systems."""
    radius = 1e-7 * (1.0 + scale)
    pa = result.points
    pb = direct.points
    gaps = np.abs(pa[:, None] - pb[None, :])
    pairs = sorted(
        ((float(gaps[i, j]), i, j)
         for i in range(pa.size) for j in range(pb.size)),
        key=lambda item: (item[0], item[1], item[2]),
    )
    used_a: set[int] = set()
    used_b: set[int] = set()
    point_gap = 0.0
    projection_gap = 0.0
    matched = 0
    for gap, i, j in pairs:
        if gap > radius:
            break
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        matched += 1
        point_gap = max(point_gap, gap)
        diff = result.projection(i).array - direct.projection(j).array
        projection_gap = max(projection_gap, float(np.linalg.norm(diff)))
    unmatched = (pa.size - matched) + (pb.size - matched)
    return [
        ("cross_point_gap", point_gap, radius),
        ("cross_projection_gap", projection_gap, 1e4 * tol.rel(result.dim)),
        ("cross_unmatched", float(unmatched), 0.0),
    ]


def cross_check(result: PipelineResult, direct: SpectralMeasure,
                tol: Tolerances | None = None) -> VerificationReport:
    """Match pipeline atoms against a directly computed measure.

    Pairs atoms greedily by point distance inside the acceptance radius
    ``1e-7 (1 + ||T||_2)``, ten times the default clustering radius, and
    reports the largest point and projection gaps together with the
    number of unmatched atoms on either side.
    """
    tol = _resolve(tol)
    return VerificationReport.from_checks(_match_measures(
        result.spectral_measure, direct, tol,
        result.decomposition.source_norm))
