import dataclasses
import sys

import numpy as np
import pytest

from spectral_forge import linalg, pipeline
from spectral_forge.decomposition import decompose
from spectral_forge.errors import NotNormal, ScaleLimit
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import OperatorMatrix, frobenius, op_norm_2, rel
from spectral_forge.measures import (SpectralMeasure, _measure_in_frame,
                                     pvm_from_normal, pvm_integrate,
                                     pvm_validate)
from spectral_forge.pipeline import NORM_LIMIT, spectral_theorem


def test_scalar_example_end_to_end():
    t = OperatorMatrix(np.diag([2j, -3.0]))
    res = spectral_theorem(t, direct_check=True)
    e = res.spectral_measure
    np.testing.assert_allclose(e.points, [-3.0, 2j], atol=1e-12)
    np.testing.assert_allclose(e.projection(0).array, np.diag([0, 1.0]),
                               atol=1e-12)
    np.testing.assert_allclose(e.projection(1).array, np.diag([1.0, 0]),
                               atol=1e-12)
    assert res.report.all_passed, res.report.residuals
    assert res.report.residuals["atom_count"] == 2.0


def test_intermediate_measures_of_scalar_example():
    res = spectral_theorem(OperatorMatrix(np.diag([2j, -3.0])))
    np.testing.assert_allclose(res.e1.points, [0.1, 0.2], atol=1e-14)
    np.testing.assert_allclose(res.e2.points, [-0.3, 0.4j], atol=1e-14)
    assert res.e1.points.dtype == np.complex128
    assert np.all(res.e1.points.imag == 0.0)


def test_zero_operator_single_atom():
    res = spectral_theorem(OperatorMatrix.zeros(3))
    e = res.spectral_measure
    assert e.num_atoms == 1
    assert e.points[0] == 0.0
    np.testing.assert_allclose(e.projection(0).array, np.eye(3), atol=1e-14)
    assert res.report.all_passed


def test_rejects_non_normal():
    with pytest.raises(NotNormal):
        spectral_theorem(OperatorMatrix(np.array([[0, 1], [0, 0]],
                                                 dtype=complex)))


def test_random_normal_matches_direct_diagonalization():
    t = generate(OperatorSpec("random_normal", dim=24, scale=2.0, seed=8))
    res = spectral_theorem(t, direct_check=True)
    rep = res.report
    assert rep.all_passed, rep.residuals
    assert rep.residuals["cross_unmatched"] == 0.0
    assert rep.residuals["cross_point_gap"] <= 1e-7 * (1 + 2.0)
    recon = pvm_integrate(lambda z: z, res.spectral_measure)
    assert np.linalg.norm(recon.array - t.array) < 1e-7 * 24


def test_pipeline_measure_is_valid_pvm():
    t = generate(OperatorSpec("random_normal", dim=12, scale=1.0, seed=20))
    res = spectral_theorem(t)
    assert pvm_validate(res.spectral_measure).all_passed


def test_hermitian_input_real_spectrum():
    t = generate(OperatorSpec("random_hermitian", dim=8, scale=2.0, seed=5))
    res = spectral_theorem(t)
    assert np.max(np.abs(res.spectral_measure.points.imag)) < 1e-8


def test_unitary_atoms_on_circle():
    t = generate(OperatorSpec("random_unitary", dim=6, scale=1.0, seed=10))
    res = spectral_theorem(t, direct_check=True)
    assert res.report.all_passed
    radii = np.abs(res.spectral_measure.points)
    np.testing.assert_allclose(radii, 1.0, atol=1e-8)


def test_laplacian_spectrum_formula():
    # eigenvalues 2 - 2 cos(k pi / (n+1)), all simple
    n = 16
    t = generate(OperatorSpec("laplacian_1d", dim=n, scale=1.0))
    res = spectral_theorem(t, direct_check=True)
    assert res.report.all_passed
    want = np.sort(2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    got = np.sort(res.spectral_measure.points.real)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_momentum_ring_degenerate_spectrum():
    # eigenvalues -sin(2 pi k / n) come in coincident pairs
    n = 8
    t = generate(OperatorSpec("momentum_1d", dim=n, scale=1.0))
    res = spectral_theorem(t, direct_check=True)
    assert res.report.all_passed
    want = np.unique(np.round(-np.sin(2 * np.pi * np.arange(n) / n), 12))
    assert res.spectral_measure.num_atoms == want.size


@pytest.mark.parametrize("norm", [1e3, 1e4, 1e5, 9e5])
def test_momentum_zero_atom_keeps_rank_2(norm):
    # B's local form on T's null modes is rounding of eps ||T||; left in,
    # it splits the rank-2 atom at 0 once clusters join relative to their
    # own size
    n = 12
    t = generate(OperatorSpec("momentum_1d", dim=n, scale=norm))
    res = spectral_theorem(t)
    assert res.report.all_passed, res.report.failed
    for e in (res.e2, res.spectral_measure):
        k = int(np.argmin(np.abs(e.points)))
        assert e.ranks[k] == 2
        assert abs(e.points[k]) <= 100 * n * np.finfo(float).eps * norm
    assert res.spectral_measure.num_atoms == n // 2 + 1


@pytest.mark.parametrize("n", [48, 64, 96, 128, 160])
def test_momentum_at_9e5_never_passes_a_wrong_measure(n):
    # E_A's two smallest weights, 1/(1 + s^2) near s = 9e5, are 2.1e-14
    # apart at n = 48, closer than 100 eps of the weight 1 of T's null
    # modes; joined relative to their own size they stay apart, so the
    # report passes and the measure matches numpy's
    norm = 9e5
    t = generate(OperatorSpec("momentum_1d", dim=n, scale=norm))
    res = spectral_theorem(t)
    assert res.report.all_passed, res.report.failed
    e = res.spectral_measure
    gaps = np.abs(np.linalg.eigvals(t.array)[:, None] - e.points)
    assert np.max(np.min(gaps, axis=1)) <= 1e-7 * (1.0 + norm)
    near = np.bincount(np.argmin(gaps, axis=1), minlength=e.num_atoms)
    assert tuple(near.tolist()) == e.ranks


def _six_clusters_of_four(seed, norm, delta):
    """T on C^24 with six points on the circle of radius ``norm``, each
    four times, spread by ``delta`` relative to itself."""
    from spectral_forge.gallery import _conjugated_diagonal
    rng = np.random.default_rng(seed)
    if delta is None:  # the points 1e-8 j apart, j = 0..3
        points = np.exp(2j * np.pi * np.arange(6) / 6)
        spread = 1.0 + 1e-8 * np.tile(np.arange(4), 6)
    else:
        points = np.exp(2j * np.pi * rng.random(6))
        spread = 1.0 + delta * rng.standard_normal(24)
    z = norm * np.repeat(points, 4) * spread
    return OperatorMatrix(_conjugated_diagonal(seed + 1, 24, z))


@pytest.mark.parametrize("seed, norm, delta", [
    (0, 1e3, None), (4, 1e3, None), (9, 1e3, None),
    (0, 1.0, 1e-7), (1, 1e3, 3e-8), (2, 9e5, 1e-6)])
def test_clustered_spectrum_commutes_on_e_a_blocks(seed, norm, delta):
    # B's local form between different E_A atoms is rounding; left in,
    # it couples the clusters' near-equal eigenvalues across E_A's atoms
    # and E_B fails to commute with E_A, so E_B is solved on E_A's blocks
    # (the points of a cluster are as far apart as the reconstruction
    # rule lets an atom's point stray, so atoms and numpy's eigenvalues
    # are matched by distance, not one to one)
    t = _six_clusters_of_four(seed, norm, delta)
    res = spectral_theorem(t)
    assert res.report.all_passed, res.report.failed
    e = res.spectral_measure
    gaps = np.abs(np.linalg.eigvals(t.array)[:, None] - e.points)
    assert np.max(np.min(gaps, axis=0)) <= 1e-7 * (1.0 + norm)
    assert np.max(np.min(gaps, axis=1)) <= 1e-7 * (1.0 + norm)
    assert sum(e.ranks) == t.dim
    u = e.stacked_basis()
    rebuilt = (u * np.repeat(e.points, e.ranks)) @ u.conj().T
    assert np.linalg.norm(rebuilt - t.array) <= 1e-6 * np.linalg.norm(t.array)


def test_scale_limit_refusal_and_override():
    t = OperatorMatrix(1e9 * np.eye(2))
    with pytest.raises(ScaleLimit):
        spectral_theorem(t)
    # forced, the weight 1/(1 + 1e18) keeps the relative accuracy of the
    # one-sided solve, and the pushforward recovers the point
    res = spectral_theorem(t, force_scale=True)
    assert res.report.all_passed, res.report.failed
    np.testing.assert_allclose(res.spectral_measure.points, [1e9], rtol=1e-12)


@pytest.mark.parametrize("t", [
    OperatorMatrix(1e9 * np.eye(2)),
    generate(OperatorSpec("random_normal", dim=4, scale=1e9, seed=4)),
], ids=["scalar", "random_normal"])
def test_forced_pipeline_passes_without_warnings(t):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = spectral_theorem(t, force_scale=True)
    assert res.report.all_passed, res.report.failed
    e = res.spectral_measure
    z = np.linalg.eigvals(t.array)
    gaps = np.abs(z[:, None] - e.points)
    assert np.max(np.min(gaps, axis=1)) <= 1e-7 * (1.0 + 1e9)
    assert np.max(np.min(gaps, axis=0)) <= 1e-7 * (1.0 + 1e9)
    assert sum(e.ranks) == t.dim


def test_norm_at_limit_still_recovers():
    t = OperatorMatrix(1e6 * np.eye(2))
    res = spectral_theorem(t)
    np.testing.assert_allclose(res.spectral_measure.points, [1e6], rtol=1e-9)
    assert res.report.all_passed, res.report.residuals


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5])
def test_pipeline_reconstruction_is_the_spectrum_rule(scale):
    # one rule at every norm: 100 rel(n) (1 + ||T||_F), as spectrum and
    # verify hold a measure of T
    t = generate(OperatorSpec("random_normal", dim=8, scale=scale, seed=3))
    res = spectral_theorem(t)
    assert res.report.tolerances["reconstruction"] == \
        100 * rel(8) * (1.0 + frobenius(t))
    assert res.report.all_passed


def test_explicit_radius_merging_eigenvalues_fails_reconstruction():
    # an explicit radius of 0.5 joins T's atoms alone: 1 and 1.3 merge
    # and 4 stays apart, as in pvm_from_normal with the same radius, and
    # the pipeline's own report refuses the merged atom
    t = OperatorMatrix(np.diag([1.0, 1.3, 4.0]).astype(complex))
    tol = linalg.Tolerances(cluster=0.5)
    res = spectral_theorem(t, tol)
    assert res.spectral_measure.num_atoms == 2
    assert res.spectral_measure.num_atoms == pvm_from_normal(t, tol).num_atoms
    assert res.e1.num_atoms == res.e2.num_atoms == 3
    assert res.report.failed == ["reconstruction"]


def test_explicit_radius_joins_the_atoms_of_t_alone():
    # E_A's weights lie in (0, 1] and E_B's points within 1/2, so a radius
    # given for T's points leaves both to their own rules: the pipeline
    # passes its report with spectrum's atom count, E_A and E_B are those
    # of default tolerances and carry no radius (none can be put on them),
    # and the measures of T carry the radius and pass by it
    t = generate(OperatorSpec("random_normal", dim=12, scale=1000.0, seed=3))
    tol = linalg.Tolerances(cluster=1e-6)
    res = spectral_theorem(t, tol, direct_check=True)
    assert res.report.all_passed, res.report.failed
    assert res.spectral_measure.num_atoms == pvm_from_normal(t, tol).num_atoms
    default = spectral_theorem(t)
    for got, want in ((res.e1, default.e1), (res.e2, default.e2)):
        np.testing.assert_array_equal(got.points, want.points)
        np.testing.assert_array_equal(got.stacked_basis(),
                                      want.stacked_basis())
        assert got.cluster is None
        for radius in (1e-9, 1e-6, 1e-3):
            with pytest.raises(ValueError, match="carries no cluster radius"):
                dataclasses.replace(got, cluster=radius)
    for e in (res.spectral_measure, res.direct_measure):
        assert e.cluster == 1e-6
        assert pvm_validate(e).tolerances["min_point_gap"] == 1e-6
        assert pvm_validate(e).all_passed
    assert default.spectral_measure.cluster is None


def test_e2_support_within_half():
    t = generate(OperatorSpec("random_normal", dim=9, scale=50.0, seed=71))
    res = spectral_theorem(t)
    assert res.e2.support_radius <= 0.5 + 1e-9
    assert res.report.passed["e2_support_excess"]


# Warm route: the one-sided solve of T is the one cold solve; E_B is
# solved in its frame V, and the norm in any frame is the top singular
# value of T V.

WARM_KINDS = ("random_normal", "random_hermitian", "random_unitary",
              "multiplication", "laplacian_1d", "momentum_1d")
WARM_NORMS = (1e-2, 1.0, 1e2, 1e4, 1e6)


def _warm_cases(kind):
    for n in (5, 16, 32):
        for norm in WARM_NORMS:
            t = generate(OperatorSpec(kind, dim=n, scale=norm, seed=n + 3))
            d = decompose(t)
            r = d._local.shape[0]
            b_local = np.zeros((n, n), dtype=np.complex128)
            b_local[:r, :r] = d._local
            yield t, d.b, b_local, d._unitary


def test_guard_reads_the_norm_off_the_one_sided_solve(monkeypatch):
    # the guard's ||T||_2 is the one-sided solve's max s: one
    # _jacobi_one_sided call per run, and no norm solve besides it,
    # whichever module namespace would reach one
    calls = []
    solve = linalg._jacobi_one_sided

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a norm solve ran beside the one-sided solve")

    modules = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "spectral_forge"]
    for module in modules:
        for name, stub in (("_jacobi_one_sided", counted),
                           ("op_norm_2", refuse)):
            if name in vars(module):
                monkeypatch.setattr(module, name, stub)
    for spec in (OperatorSpec("random_normal", dim=12, scale=3.0, seed=4),
                 OperatorSpec("random_hermitian", dim=7, scale=5e5, seed=2),
                 OperatorSpec("multiplication", dim=1, scale=1e6)):
        t = generate(spec)
        calls.clear()
        assert spectral_theorem(t).report.all_passed
        assert len(calls) == 1


def test_route_solves_t_through_decompose_once(monkeypatch):
    # the route's first stage is the public decompose, called once per
    # run: its pair is the result's decomposition, and E_A's points and
    # basis are the pair's weights and U
    calls = []

    def counted(t):
        calls.append(decompose(t))
        return calls[-1]

    monkeypatch.setattr(pipeline, "decompose", counted)
    for spec in (OperatorSpec("random_normal", dim=12, scale=3.0, seed=4),
                 OperatorSpec("momentum_1d", dim=8, scale=10.0),
                 OperatorSpec("multiplication", dim=1, scale=1e6)):
        calls.clear()
        res = spectral_theorem(generate(spec), direct_check=True)
        assert res.report.all_passed
        assert len(calls) == 1 and res.decomposition is calls[0]
        d = calls[0]
        # equal weights on these inputs differ by rounding alone
        np.testing.assert_allclose(np.repeat(res.e1.points.real,
                                             res.e1.ranks), d._weights,
                                   rtol=1e-14, atol=0)
        assert np.shares_memory(res.e1.stacked_basis(), d._unitary)


def _bits(e: SpectralMeasure) -> tuple:
    """A measure's points and stacked basis as uint64, which see -0.0."""
    return tuple(np.ascontiguousarray(x).view(np.uint64)
                 for x in (e.points, e.stacked_basis()))


def test_cross_check_tests_normality_once_per_operator(monkeypatch):
    # T in decompose and B's local form in E_B's pvm_from_normal; the
    # cross-check's direct solve of T relies on decompose's test
    t = generate(OperatorSpec("random_normal", dim=12, scale=10.0, seed=5))
    calls = []
    test = linalg.is_normal

    def counted(m):
        calls.append(m.dim)
        return test(m)

    for module in [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "spectral_forge"]:
        if "is_normal" in vars(module):
            monkeypatch.setattr(module, "is_normal", counted)
    res = spectral_theorem(t, direct_check=True)
    assert len(calls) == 2
    monkeypatch.undo()
    # the same direct measure as pvm_from_normal's, so the same report
    for got, want in zip(_bits(res.direct_measure), _bits(pvm_from_normal(t))):
        np.testing.assert_array_equal(got, want)
    assert res.report.to_json_dict() == spectral_theorem(
        t, direct_check=True).report.to_json_dict()
    assert {"cross_point_gap", "cross_projection_gap",
            "cross_unmatched"} <= set(res.report.residuals)
    assert res.report.all_passed


def test_pipeline_sweeps_once_cold(monkeypatch):
    # every sweep head of either Jacobi kernel, the one-sided kernel's
    # Gram matrices included, measures its off-diagonal mass once; the
    # cold one-sided solve of T and the warm E_B solve take 13 here,
    # where three cold solves of 64 x 64 matrices took 51 and a skip
    # threshold falling linearly with the off-diagonal mass 16
    heads = []
    measure = linalg._off_diagonal_norm

    def counted(w):
        if w.shape[0] >= 8:
            heads.append(1)
        return measure(w)

    monkeypatch.setattr(linalg, "_off_diagonal_norm", counted)
    t = generate(OperatorSpec("random_normal", dim=64, scale=10.0, seed=64))
    assert spectral_theorem(t).report.all_passed
    assert len(heads) <= 15


@pytest.mark.parametrize("kind", WARM_KINDS)
def test_warm_e2_matches_cold_measure(kind):
    eps = np.finfo(float).eps
    for t, b, b_local, frame in _warm_cases(kind):
        warm = _measure_in_frame(OperatorMatrix(b_local), frame)
        cold = pvm_from_normal(b)
        n = t.dim
        assert warm.ranks == cold.ranks
        np.testing.assert_allclose(
            warm.points, cold.points, rtol=0,
            atol=4 * eps * n * float(np.max(np.abs(cold.points))))
        for k in range(cold.num_atoms):
            gap = np.linalg.norm(warm.projection(k).array
                                 - cold.projection(k).array)
            assert gap <= 10 * rel(n)


def test_b_is_normal_to_its_own_rounding_on_a_spectrum_with_0():
    # formed as T A, B carried rounding of order eps ||T|| whatever its
    # own size, and at 1e4 on a spectrum containing 0 V* B V missed a
    # normality test at rel(n) relative to itself; weighted on both
    # sides by W^(1/2), it passes, and the pipeline recovers T
    t = generate(OperatorSpec("momentum_1d", dim=4, scale=1e4))
    d = decompose(t)
    v = d._unitary
    assert linalg.is_normal(OperatorMatrix(v.conj().T @ d.b.array @ v))
    res = spectral_theorem(t)
    assert res.report.all_passed, res.report.residuals
    np.testing.assert_allclose(res.spectral_measure.points,
                               [-1e4, 0.0, 1e4], rtol=0, atol=1e-4)


@pytest.mark.parametrize("kind", WARM_KINDS)
def test_norm_in_frame_matches_op_norm_2(kind):
    # T F has T's singular values for the unitary frame F of E_A
    for t, _, _, frame in _warm_cases(kind):
        cold = op_norm_2(t)
        warm = op_norm_2(OperatorMatrix(t.array @ frame))
        assert abs(warm - cold) <= 1e-13 * cold


def test_guard_proceeds_when_only_frobenius_passes_limit():
    t = OperatorMatrix(np.diag([9e5, -9e5j]))
    assert frobenius(t) > NORM_LIMIT >= op_norm_2(t)
    res = spectral_theorem(t)
    assert res.report.all_passed, res.report.residuals
    np.testing.assert_allclose(res.spectral_measure.points, [-9e5j, 9e5],
                               rtol=1e-9)


def test_guard_refuses_above_limit_with_cold_norm():
    with pytest.raises(ScaleLimit) as err:
        spectral_theorem(OperatorMatrix(np.diag([1.5e6, 1.0])))
    assert str(err.value) == (
        "operator norm 1.500e+06 exceeds 1e+06, the end of the documented "
        "range (pass force_scale=True to proceed anyway)")


def test_normality_is_tested_before_the_norm_guard():
    t = generate(OperatorSpec("jordan_block", dim=3, scale=2e6))
    for force in (False, True):
        with pytest.raises(NotNormal):
            spectral_theorem(t, force_scale=force)


@pytest.mark.parametrize("route", ["decompose", "spectral_theorem"])
@pytest.mark.parametrize("scale", [1.0, 2e6, 1e300])
def test_non_normal_input_is_refused_before_the_solve(monkeypatch, route,
                                                      scale):
    # decompose tests normality first, for both routes: a non-normal
    # T costs no one-sided solve, and its norm or its size decides nothing
    from spectral_forge import decomposition
    calls = []
    solve = linalg._jacobi_one_sided

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(decomposition, "_jacobi_one_sided", counted)
    call = getattr(decomposition if route == "decompose" else pipeline, route)
    rng = np.random.default_rng(9)
    t = OperatorMatrix(scale * (rng.standard_normal((16, 16))
                                + 1j * rng.standard_normal((16, 16))))
    with pytest.raises(NotNormal):
        call(t)
    assert calls == []


def test_structure_is_tested_before_the_2_128_refusal_on_every_route():
    # the normality and Hermitian tests scale by a power of two, so they
    # hold past 2^128: a non-normal input gets NotNormal from every route
    # and a non-Hermitian one NotHermitian, never ScaleLimit
    from spectral_forge.decomposition import decompose
    from spectral_forge.errors import NotHermitian
    jordan = generate(OperatorSpec("jordan_block", dim=4, scale=1e300))
    for route in (linalg.normal_eig, pvm_from_normal, decompose,
                  spectral_theorem,
                  lambda t: spectral_theorem(t, force_scale=True)):
        with pytest.raises(NotNormal):
            route(jordan)
    normal = generate(OperatorSpec("random_normal", dim=4, scale=1e300, seed=2))
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(normal)
    # a normal (or Hermitian) input past 2^128 keeps the one refusal
    hermitian = generate(OperatorSpec("random_hermitian", dim=4, scale=1e300,
                                      seed=2))
    for route in (linalg.normal_eig, linalg.hermitian_eig, pvm_from_normal,
                  decompose, spectral_theorem):
        with pytest.raises(ScaleLimit, match="passes 2\\^128"):
            route(hermitian)


@pytest.mark.parametrize("scale", [1e160, 1e300])
@pytest.mark.parametrize("kind, seed", [("random_normal", 2),
                                        ("momentum_1d", None)])
def test_guard_holds_past_squared_overflow(kind, seed, scale):
    # squares of these entries overflow, so a norm taken unscaled is
    # inf and every matrix passes the Hermitian test
    t = generate(OperatorSpec(kind, dim=4, scale=scale, seed=seed))
    peak = float(np.max(np.abs(t.array)))
    oracle = np.linalg.norm(t.array / peak, 2) * peak
    assert abs(op_norm_2(t) - oracle) <= 1e-12 * oracle
    with pytest.raises(ScaleLimit):
        spectral_theorem(t)


@pytest.mark.parametrize("route", ["decompose", "spectral_theorem"])
def test_one_scale_refusal_before_the_solve(monkeypatch, route):
    # decompose refuses an entry past 2^128 once, before its one
    # solve, for both routes; forcing the pipeline changes nothing
    from spectral_forge import decomposition
    events = []
    refuse, solve = linalg._refuse_past_scale_limit, linalg._jacobi_one_sided

    def refused(m):
        events.append("refuse")
        return refuse(m)

    def solved(*args, **kwargs):
        events.append("solve")
        return solve(*args, **kwargs)

    monkeypatch.setattr(decomposition, "_refuse_past_scale_limit", refused)
    monkeypatch.setattr(decomposition, "_jacobi_one_sided", solved)
    call = getattr(decomposition if route == "decompose" else pipeline, route)
    t = generate(OperatorSpec("random_normal", dim=5, scale=3.0, seed=5))
    call(t)
    assert events == ["refuse", "solve"]
    events.clear()
    big = OperatorMatrix(t.array * 1e300)
    kwargs = {} if route == "decompose" else {"force_scale": True}
    with pytest.raises(ScaleLimit, match="passes 2\\^128; the sums of squares"):
        call(big, **kwargs)
    assert events == ["refuse"]


def _dense_match(result, direct, scale):
    """The cross-check matching on sorted (gap, i, j) tuples and dense
    projections, as a reference for the rank-space one."""
    radius = 1e-7 * (1.0 + scale)
    gaps = np.abs(result.points[:, None] - direct.points[None, :])
    pairs = sorted((float(gaps[i, j]), i, j) for i in range(result.num_atoms)
                   for j in range(direct.num_atoms))
    used_a, used_b = set(), set()
    point_gap = projection_gap = 0.0
    for gap, i, j in pairs:
        if gap > radius:
            break
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        point_gap = max(point_gap, gap)
        diff = result.projection(i).array - direct.projection(j).array
        projection_gap = max(projection_gap, float(np.linalg.norm(diff)))
    unmatched = result.num_atoms + direct.num_atoms - 2 * len(used_a)
    return [("cross_point_gap", point_gap, radius),
            ("cross_projection_gap", projection_gap, 1e4 * rel(result.dim)),
            ("cross_unmatched", float(unmatched), 0.0)]


def _match_case(name):
    rng = np.random.default_rng(11)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    q = np.linalg.qr(g)[0]
    tilt = np.linalg.qr(np.eye(5) + 1e-3 * g)[0]
    cuts = {"a": (q[:, :1], q[:, 1:3], q[:, 3:]),
            "b": (q[:, :2], q[:, 2:3], q[:, 3:])}
    if name == "ties":
        # every result atom is 1 from two direct atoms: ties break on i, j
        a = SpectralMeasure(5, np.array([0.0, 2.0, 4.0]), bases=cuts["a"])
        b = SpectralMeasure(5, np.array([1.0, 3.0, 5.0]),
                            bases=tuple(tilt @ c for c in cuts["b"]))
        return a, b, 1e7
    if name == "unmatched":
        a = SpectralMeasure(5, np.array([0.0, 1.0, 2.0]), bases=cuts["a"])
        b = SpectralMeasure(5, np.array([0.0, 1.0 + 1e-9, 7.0]),
                            bases=cuts["b"])
        return a, b, 1.0
    t = generate(OperatorSpec(name, dim=12, scale=2.0, seed=3))
    return spectral_theorem(t).spectral_measure, pvm_from_normal(t), 2.0


@pytest.mark.parametrize("name", ["ties", "unmatched", "random_normal",
                                  "momentum_1d"])
def test_match_measures_agrees_with_dense_matching(name):
    a, b, scale = _match_case(name)
    got = pipeline._match_measures(a, b, scale)
    want = _dense_match(a, b, scale)
    assert [(k, bound) for k, _, bound in got] == \
        [(k, bound) for k, _, bound in want]
    assert got[0][1] == want[0][1] and got[2][1] == want[2][1]
    assert got[1][1] == pytest.approx(want[1][1], rel=1e-9, abs=1e-14)
