"""Designed spectra: T = Q diag(z) Q* with a seeded unitary Q.

The gallery's random kinds put no eigenvalues close together by design,
so this corpus builds the spectra that stress the route: equal moduli,
graded moduli, tight clusters, a null space and real ±λ pairs.  Every
case must pass its own report, raise nothing, and agree with numpy's
``eig`` within the cross-check's acceptance radius ``1e-7 (1 + ||T||)``,
each atom matched to as many of numpy's eigenvalues as its rank.  Past
``NORM_LIMIT`` the pipeline runs forced: E_A's one-sided weights keep
their relative accuracy there, so the answers must hold as well.
"""

import numpy as np
import pytest

from spectral_forge.gallery import _gram_schmidt_unitary
from spectral_forge.linalg import OperatorMatrix
from spectral_forge.pipeline import NORM_LIMIT, spectral_theorem

DIMS = (6, 12, 24)
SEEDS = (3, 8)
NORMS = (1e-3, 1.0, 1e3, 9e5)
FORCED_NORMS = (1e8, 1e20, 1e37)
SPREADS = (1e-13, 1e-8, 3e-8, 1e-6, 1e-4)


def _phases(n, rng, repeat=1):
    """Unit moduli at n / repeat distinct phases, each ``repeat`` times."""
    k = n // repeat
    angles = 2.0 * np.pi * (np.arange(k) + 0.5 * rng.random(k)) / k
    return np.repeat(np.exp(1j * angles), repeat)


def _graded(n, rng):
    """Moduli from 1 down to 1e-6, evenly in the exponent."""
    phases = np.exp(2j * np.pi * rng.random(n))
    return 10.0 ** np.linspace(0.0, -6.0, n) * phases


def _clusters(n, rng, spread):
    """Clusters of 4 spread by ``spread`` relative to their centre; the
    n % 4 points left over sit alone."""
    k, rest = divmod(n, 4)
    m = k + rest
    centres = np.exp(2j * np.pi * (np.arange(m) + 0.3 * rng.random(m)) / m)
    z = np.repeat(centres[:k], 4) * (1.0 + spread * rng.standard_normal(4 * k))
    return np.concatenate([z, centres[k:]])


def _third_zero(n, rng):
    """A third of the eigenvalues 0, the rest of modulus in [0.5, 1]."""
    m = n - n // 3
    live = (0.5 + 0.5 * rng.random(m)) * np.exp(2j * np.pi * rng.random(m))
    return np.concatenate([np.zeros(n - m), live])


def _plus_minus(n, rng):
    """Real pairs ±λ, λ in [0.1, 1]."""
    lam = 0.1 + 0.9 * rng.random(n // 2)
    return np.concatenate([lam, -lam]).astype(np.complex128)


SPECTRA = {
    "phases": lambda n, rng: _phases(n, rng),
    "phases_x3": lambda n, rng: _phases(n, rng, repeat=3),
    "graded": _graded,
    **{f"cluster_{s:g}": (lambda s: lambda n, rng: _clusters(n, rng, s))(s)
       for s in SPREADS},
    "third_zero": _third_zero,
    "plus_minus": _plus_minus,
}


def _designed(name, n, seed, norm):
    """T on C^n with the spectrum ``name`` scaled to modulus ``norm``."""
    z = SPECTRA[name](n, np.random.default_rng(seed))
    z = norm * z / np.max(np.abs(z))
    q = _gram_schmidt_unitary(seed, n)
    t = (q * z) @ q.conj().T
    if name == "plus_minus":
        t = (t + t.conj().T) / 2.0
    return OperatorMatrix(t)


def _matched_gap(z, e):
    """Largest gap of a greedy matching of the eigenvalues z to the atoms
    of e, each atom taking as many as its rank, pairs taken in (gap, i,
    j) order as the cross-check takes them."""
    gaps = np.abs(z[:, None] - e.points)
    room = np.array(e.ranks)
    done = np.zeros(z.shape[0], dtype=bool)
    worst = 0.0
    for k in np.argsort(gaps, axis=None, kind="stable").tolist():
        i, j = divmod(k, e.num_atoms)
        if not done[i] and room[j]:
            done[i] = True
            room[j] -= 1
            worst = max(worst, float(gaps[i, j]))
    assert done.all()
    return worst


def _passes(t, norm, where):
    """The pipeline passes its report on T and matches numpy's eig."""
    res = spectral_theorem(t, force_scale=norm > NORM_LIMIT)
    assert res.report.all_passed, (where, res.report.failed)
    gap = _matched_gap(np.linalg.eigvals(t.array), res.spectral_measure)
    assert gap <= 1e-7 * (1.0 + norm), (where, gap)


@pytest.mark.parametrize("name, n, norm", [
    (name, n, norm)
    for name in SPECTRA for n in DIMS for norm in NORMS + FORCED_NORMS])
def test_designed_spectrum(name, n, norm):
    for seed in SEEDS:
        _passes(_designed(name, n, seed, norm), norm, seed)


# Clusters of 4 at small n, where E_A's join radius meets the mixing of
# singular subspaces kept apart: when E_A joined within 1e-8, 10 of
# these 432 runs failed reconstruction (worst 1.20 of the bound, spreads
# 4.7e-9 to 1e-7, n 5 and 6, all at 1e3 and 9e5).
@pytest.mark.parametrize("spread", np.logspace(np.log10(3e-9), -7, 9).tolist(),
                         ids=lambda s: f"{s:.2g}")
def test_small_clusters_stress(spread):
    for n in (5, 6):
        for seed in range(12):
            q = _gram_schmidt_unitary(seed, n)
            z = _clusters(n, np.random.default_rng(seed), spread)
            for norm in (1e3, 9e5):
                t = OperatorMatrix((q * (norm * z / np.max(np.abs(z))))
                                   @ q.conj().T)
                _passes(t, norm, (n, seed, norm))
