"""Independent output check: numpy ``eig`` against the package's results.

The bounds are those of acceptance criteria 6 and 7 in
``tests/test_acceptance.py``: atoms match within ``1e-7 (1 + ||T||)``,
projections within ``1e-6 n``, reconstruction within
``1e-7 n (1 + ||T||_F)``, each widened by ``(||T|| / 100)^2`` once the
norm passes the knee at 100, where the reciprocal map amplifies atom
errors.  Clustering uses the package's default radius for ``||T||``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from spectral_forge import Tolerances


@dataclass(frozen=True)
class Reference:
    """numpy's spectral measure of one input, with the bounds it sets."""

    points: np.ndarray
    bases: list
    point_radius: float
    projection_bound: float
    reconstruction_bound: float


def reference(arr: np.ndarray) -> Reference:
    """Cluster numpy's eigenpairs of ``arr`` into atoms."""
    n = arr.shape[0]
    norm2 = float(np.linalg.norm(arr, 2))
    relax = max(1.0, (norm2 / 100.0) ** 2)
    lam, vec = np.linalg.eig(arr)
    close = np.abs(lam[:, None] - lam[None, :]) <= \
        Tolerances().cluster_radius(norm2)
    label = np.full(n, -1)
    groups = []
    for seed in range(n):
        if label[seed] >= 0:
            continue
        label[seed] = len(groups)
        members, frontier = [seed], [seed]
        while frontier:
            k = frontier.pop()
            for j in np.flatnonzero(close[k] & (label < 0)):
                label[j] = len(groups)
                members.append(int(j))
                frontier.append(int(j))
        groups.append(sorted(members))
    return Reference(
        points=np.array([lam[m].mean() for m in groups]),
        bases=[np.linalg.qr(vec[:, m])[0] for m in groups],
        point_radius=relax * 1e-7 * (1.0 + norm2),
        projection_bound=relax * 1e-6 * n,
        reconstruction_bound=relax * 1e-7 * n *
        (1.0 + float(np.linalg.norm(arr))),
    )


def check_measure(arr: np.ndarray, points, projections,
                  ref: Reference | None = None) -> str | None:
    """Why the measure (points, dense projections) misses, or None."""
    ref = ref or reference(arr)
    points = np.asarray(points, dtype=np.complex128)
    dist = np.abs(points[:, None] - ref.points[None, :])
    free = np.ones(ref.points.size, dtype=bool)
    unmatched = 0
    proj_gap = 0.0
    for k in np.argsort(dist.min(axis=1), kind="stable"):
        candidates = np.where(free, dist[k], np.inf)
        pick = int(np.argmin(candidates))
        if not candidates[pick] <= ref.point_radius:
            unmatched += 1
            continue
        free[pick] = False
        q = ref.bases[pick]
        gap = np.linalg.norm(projections[k] - q @ q.conj().T)
        proj_gap = max(proj_gap, float(gap))
    unmatched += int(free.sum())
    if unmatched:
        return f"{unmatched} atoms unmatched"
    if proj_gap > ref.projection_bound:
        return f"projection gap {proj_gap:.3e} > {ref.projection_bound:.3e}"
    recon = sum(z * p for z, p in zip(points, projections)) - arr
    rec = float(np.linalg.norm(recon))
    if rec > ref.reconstruction_bound:
        return f"reconstruction {rec:.3e} > {ref.reconstruction_bound:.3e}"
    return None


def check_report(arr: np.ndarray, report: dict,
                 ref: Reference | None = None) -> str | None:
    """Why a report-only output disagrees with the reference, or None.

    A report carries no measure, so the check is the atom count against
    numpy's clustered count and the reported reconstruction residual
    against the criterion bound.
    """
    ref = ref or reference(arr)
    residuals = report["residuals"]
    atoms = int(residuals["atom_count"])
    if atoms != ref.points.size:
        return f"{atoms} atoms, numpy has {ref.points.size}"
    rec = float(residuals["reconstruction"])
    if rec > ref.reconstruction_bound:
        return f"reconstruction {rec:.3e} > {ref.reconstruction_bound:.3e}"
    return None
