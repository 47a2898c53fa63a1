"""End-to-end spectral resolution of a normal operator.

The route never diagonalizes the input directly: it decomposes T into
the bounded pair (A, B), takes the spectral measures of both, forms
their product, and pushes the product forward through
``phi(t, w) = w / t`` (with the guarded reciprocal at the origin).
Because A = (I + T*T)^(-1) and B = T A share eigenvectors with T, the
surviving joint atoms satisfy w / t = z for the corresponding
eigenvalue z of T, so the pushforward reassembles T's own measure.
A direct diagonalization of T is kept only as an optional cross check.

Exactly one Jacobi solve starts cold: the one-sided solve T V = U S.
It gives the weights W = diag(1/(1 + s^2)), A = V W V*, B = T A formed
as V W^(1/2) (V* T V) W^(1/2) V*, E_A (W on the columns of V) and
||T||_2 = max s.  Since T, A and B share eigenvectors, V nearly
diagonalizes B, so E_B is solved warm from B's local form
W^(1/2) (V* T V) W^(1/2), the V* B V that B was formed from: unitarily
similar to B, it converges in a few sweeps and would reach the same
answer from any frame.

E_A's weights keep the relative accuracy of the singular values, but
the pushforward divides E_B's points, whose errors are absolute, by
them, amplifying those errors by 1 + |z|^2.  So accuracy degrades with
the squared norm past 1e2, which is why the pipeline refuses inputs
beyond 1e6 unless forced (reading ||T||_2 off the same solve, before
the normality test); the tolerance schedule below encodes that growth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .decomposition import Decomposition, _bounded_pair, _require_normal
from .errors import ScaleLimit, SingularWeightWarning
from .linalg import (OperatorMatrix, Tolerances, _refuse_past_scale_limit,
                     _resolve, frobenius)
from .measures import (PVM_FACTOR, SpectralMeasure, _clustered_measure,
                       _measure_in_frame, pvm_from_normal, pvm_integrate)
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


def spectral_theorem(t: OperatorMatrix, tol: Tolerances | None = None, *,
                     direct_check: bool = False,
                     force_scale: bool = False) -> PipelineResult:
    """Resolve a normal operator into a discrete spectral measure.

    The route of the module docstring; E_B's bases are rotated back by V.

    Parameters
    ----------
    t : OperatorMatrix
        Normal input.  NotNormal is raised otherwise; since the norm
        guard runs first, a non-normal input whose norm exceeds
        ``NORM_LIMIT`` raises ScaleLimit instead unless forced.
    tol : Tolerances, optional
    direct_check : bool
        Also diagonalize T directly and fold the atom-matching residuals
        into the report.
    force_scale : bool
        Proceed past the ``NORM_LIMIT`` conditioning refusal.  An entry
        past 2^128 is refused even so, as I + T*T would overflow.

    Returns
    -------
    PipelineResult
        With a report carrying reconstruction and support residuals,
        counts of atoms whose weight hit the singular margin, and the
        cross-check residuals when requested.
    """
    tol = _resolve(tol)
    n = t.dim
    d, es_a, b_local = _bounded_pair(t, tol)
    source_norm = d.source_norm
    if source_norm > NORM_LIMIT and not force_scale:
        raise ScaleLimit(
            f"operator norm {source_norm:.3e} exceeds {NORM_LIMIT:.0e}; "
            "the reciprocal map would amplify atom errors beyond recovery "
            "(pass force_scale=True to proceed anyway)"
        )
    _refuse_past_scale_limit(t)
    _require_normal(t, tol)
    e1 = _clustered_measure(es_a, tol)
    e2 = _measure_in_frame(b_local, es_a.unitary.array, tol)
    del es_a, b_local  # two n x n arrays fewer under product_measure's peak
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
         pipeline_tolerance(n, source_norm, tol) * (1.0 + frobenius(t))),
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
