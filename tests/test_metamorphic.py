"""Metamorphic relations of the route T -> (A, B) -> E_A x E_B -> E_T.

The spectral measure of a normal T is unique, so the route must commute
with the maps that act on it in a known way:

- unitary similarity: Q T Q* has T's points, with projections Q P_k Q*;
- adjoint: T* has the conjugate points and the same projections;
- real scaling: c T has the points c z and as many atoms, from 1e-300
  to 1e37 (forced past ``NORM_LIMIT``, and only there);
- direct sum: diag(T, S) has the atoms of T and of S, each projection
  embedded in its own block, when their points lie far apart against
  the joining radius;
- functional calculus: the integral of the conjugate against T's
  measure is T*, within the reconstruction rule.

No eigensolver outside the package is involved.  Every bound is read
from the package's own constants.  A point may move by ``rel(n)`` times
the largest modulus, the base relative tolerance of every report bound,
plus ``_WEIGHT_REL`` times it: E_A joins weights within that relative
radius, and a join moves a point of T by up to half of it.  That term
is what the scaling relation needs near a norm of 1e-3, where the
weights 1/(1 + |z|^2) bunch below 1 (8.4e-9 relative on
``random_normal`` at c = 1e-3, against 1e-15 elsewhere).  A projection
may move by ``PVM_FACTOR rel(n)`` in Frobenius norm, the bound of the
measure's own idempotency and orthogonality records.  The inputs are
gallery operators with fixed seeds, among them atoms of rank 2
(``momentum_1d``) and complex points.
"""

import numpy as np
import pytest

from spectral_forge.decomposition import RECONSTRUCTION_FACTOR
from spectral_forge.errors import ScaleLimit
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import (
    _WEIGHT_REL,
    OperatorMatrix,
    _reach,
    frobenius,
    rel,
)
from spectral_forge.measures import (
    PVM_FACTOR,
    SpectralMeasure,
    pvm_integrate,
)
from spectral_forge.pipeline import NORM_LIMIT, spectral_theorem

INPUTS = {
    "random_normal": OperatorSpec("random_normal", dim=16, scale=1.0, seed=5),
    "momentum_1d": OperatorSpec("momentum_1d", dim=16, scale=1.0),
    "random_unitary": OperatorSpec("random_unitary", dim=12, scale=1.0,
                                   seed=3),
    "laplacian_1d": OperatorSpec("laplacian_1d", dim=10, scale=1.0),
}
SCALES = [1e-300, 1e-200, 1e-150, 1e-100, 1e-3, 1e3, 1e37]
# pairs whose points lie far apart: the imaginary axis and the real
# points of the Laplacian, which avoid 0; the unit circle and 10 k / 6
SUMS = [("momentum_1d", "laplacian_1d"),
        ("random_unitary", OperatorSpec("multiplication", dim=6,
                                        scale=10.0))]


def _measure(t: OperatorMatrix, force_scale: bool = False):
    """T's measure by the route, forced past ``NORM_LIMIT`` if asked."""
    res = spectral_theorem(t, force_scale=force_scale)
    assert res.report.all_passed, res.report.residuals
    return res.spectral_measure


def _unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _assert_same_measure(got, want, points, project=lambda p: p):
    """``got`` holds ``want``'s atoms at ``points``, with projections
    ``project(P_k)``, each within the package's bounds.

    Atoms are matched by nearest point, since a relation such as the
    adjoint may reorder points of equal real part.
    """
    n = want.dim
    gaps = np.abs(got.points[:, None] - np.asarray(points)[None, :])
    match = np.argmin(gaps, axis=0)
    assert got.num_atoms == want.num_atoms
    assert sorted(match.tolist()) == list(range(got.num_atoms))
    worst = float(np.max(gaps[match, np.arange(want.num_atoms)]))
    assert worst <= (rel(n) + _WEIGHT_REL) * float(np.max(np.abs(points))), \
        worst
    for j, i in enumerate(match.tolist()):
        assert got.ranks[i] == want.ranks[j]
        gap = np.linalg.norm(got.projection(i).array
                             - project(want.projection(j).array))
        assert gap <= PVM_FACTOR * rel(n), (j, gap)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_unitary_similarity_moves_projections_alone(name):
    t = generate(INPUTS[name])
    e = _measure(t)
    q = _unitary(t.dim, 11)
    got = _measure(OperatorMatrix(q @ t.array @ q.conj().T))
    _assert_same_measure(got, e, e.points, lambda p: q @ p @ q.conj().T)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_adjoint_conjugates_the_points_alone(name):
    t = generate(INPUTS[name])
    e = _measure(t)
    got = _measure(OperatorMatrix(t.array.conj().T))
    _assert_same_measure(got, e, e.points.conj())


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_real_scaling_scales_the_points_alone(name, c):
    t = generate(INPUTS[name])
    e = _measure(t)
    scaled = OperatorMatrix(c * t.array)
    past = c * float(np.max(np.abs(e.points))) > NORM_LIMIT
    if past:
        with pytest.raises(ScaleLimit, match="documented range"):
            spectral_theorem(scaled)
    got = _measure(scaled, force_scale=past)
    assert got.num_atoms == e.num_atoms
    _assert_same_measure(got, e, c * e.points)


def _embedded(p: np.ndarray, at: int, n: int) -> np.ndarray:
    """``p`` as the block at rows and columns ``at`` of an n x n zero."""
    out = np.zeros((n, n), dtype=np.complex128)
    out[at:at + len(p), at:at + len(p)] = p
    return out


@pytest.mark.parametrize("pair", SUMS, ids=["momentum+laplacian",
                                            "unitary+multiplication"])
def test_direct_sum_unites_the_measures(pair):
    t, s = (generate(INPUTS[x] if isinstance(x, str) else x) for x in pair)
    e, f = _measure(t), _measure(s)
    points = np.concatenate([e.points, f.points])
    gap = float(np.min(np.abs(e.points[:, None] - f.points[None, :])))
    assert gap > 1e3 * float(np.max(_reach(np.abs(points), None, "T")))
    n = t.dim + s.dim
    union = SpectralMeasure(n, points, projections=[
        _embedded(m.projection(k).array, at, n)
        for m, at in ((e, 0), (f, t.dim)) for k in range(m.num_atoms)])
    total = np.zeros((n, n), dtype=np.complex128)
    total[:t.dim, :t.dim] = t.array
    total[t.dim:, t.dim:] = s.array
    _assert_same_measure(_measure(OperatorMatrix(total)), union, points)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_integrating_the_conjugate_gives_the_adjoint(name):
    t = generate(INPUTS[name])
    adjoint = pvm_integrate(np.conj, _measure(t))
    residual = np.linalg.norm(adjoint.array - t.array.conj().T)
    assert residual <= RECONSTRUCTION_FACTOR * rel(t.dim) * (
        1.0 + frobenius(t)), residual
