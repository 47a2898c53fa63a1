import numpy as np
import pytest

from spectral_forge import linalg, pipeline
from spectral_forge.decomposition import _bounded_pair
from spectral_forge.errors import NotNormal, ScaleLimit
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import (DEFAULT_TOLERANCES, OperatorMatrix,
                                   _norm_in_frame, frobenius, op_norm_2)
from spectral_forge.measures import (_measure_in_frame, pvm_from_normal,
                                     pvm_integrate, pvm_validate)
from spectral_forge.pipeline import (
    NORM_LIMIT,
    cross_check,
    pipeline_tolerance,
    spectral_theorem,
)


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


def test_scale_limit_refusal_and_override():
    t = OperatorMatrix(1e9 * np.eye(2))
    with pytest.raises(ScaleLimit):
        spectral_theorem(t)
    # forcing runs to completion; the atoms of A drown in the singular
    # margin and the report says so instead of faking a recovery
    res = spectral_theorem(t, force_scale=True)
    assert not res.report.all_passed
    assert res.report.residuals["singular_weight_atoms"] >= 1.0


def test_norm_at_limit_still_recovers():
    t = OperatorMatrix(1e6 * np.eye(2))
    res = spectral_theorem(t)
    np.testing.assert_allclose(res.spectral_measure.points, [1e6], rtol=1e-9)
    assert res.report.all_passed, res.report.residuals


def test_cross_check_standalone():
    t = generate(OperatorSpec("random_normal", dim=10, scale=1.0, seed=33))
    res = spectral_theorem(t)
    direct = pvm_from_normal(t)
    rep = cross_check(res, direct)
    assert rep.all_passed, rep.residuals
    assert {"cross_point_gap", "cross_projection_gap",
            "cross_unmatched"} <= set(rep.residuals)


def test_pipeline_tolerance_conditioning_schedule():
    # quadratic growth kicks in only beyond norm 100
    assert pipeline_tolerance(4, 1.0) == pytest.approx(1000 * 4e-10)
    assert pipeline_tolerance(4, 100.0) == pytest.approx(1000 * 4e-10)
    assert pipeline_tolerance(4, 200.0) == pytest.approx(1000 * 4e-10 * 4.0)


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
            d, es_a, b_local = _bounded_pair(t, DEFAULT_TOLERANCES)
            yield t, d.b, b_local, es_a.unitary.array


def test_guard_skips_op_norm_2_below_frobenius_limit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("op_norm_2 ran below the Frobenius limit")

    monkeypatch.setattr(linalg, "op_norm_2", refuse)
    for spec in (OperatorSpec("random_normal", dim=12, scale=3.0, seed=4),
                 OperatorSpec("random_hermitian", dim=7, scale=5e5, seed=2),
                 OperatorSpec("multiplication", dim=1, scale=1e6)):
        t = generate(spec)
        assert frobenius(t) <= NORM_LIMIT
        assert spectral_theorem(t).report.all_passed


def test_pipeline_sweeps_once_cold(monkeypatch):
    # every sweep head of either Jacobi kernel, the one-sided kernel's
    # Gram matrices included, measures its off-diagonal mass once; the
    # cold one-sided solve of T and the warm E_B solve take 16 here,
    # where three cold solves of 64 x 64 matrices took 51
    heads = []
    measure = linalg._off_diagonal_norm

    def counted(w):
        if w.shape[0] >= 8:
            heads.append(1)
        return measure(w)

    monkeypatch.setattr(linalg, "_off_diagonal_norm", counted)
    t = generate(OperatorSpec("random_normal", dim=64, scale=10.0, seed=64))
    assert spectral_theorem(t).report.all_passed
    assert len(heads) <= 30


@pytest.mark.parametrize("kind", WARM_KINDS)
def test_warm_e2_matches_cold_measure(kind):
    eps = np.finfo(float).eps
    for t, b, b_local, frame in _warm_cases(kind):
        warm = _measure_in_frame(b_local, frame)
        cold = pvm_from_normal(b)
        n = t.dim
        assert warm.ranks == cold.ranks
        np.testing.assert_allclose(
            warm.points, cold.points, rtol=0,
            atol=4 * eps * n * float(np.max(np.abs(cold.points))))
        for k in range(cold.num_atoms):
            gap = np.linalg.norm(warm.projection(k).array
                                 - cold.projection(k).array)
            assert gap <= 10 * DEFAULT_TOLERANCES.rel(n)


def test_b_is_normal_to_its_own_rounding_on_a_spectrum_with_0():
    # formed as T A, B carried rounding of order eps ||T|| whatever its
    # own size, and at 1e4 on a spectrum containing 0 V* B V missed a
    # normality test at rel(n) relative to itself; weighted on both
    # sides by W^(1/2), it passes, and the pipeline recovers T
    t = generate(OperatorSpec("momentum_1d", dim=4, scale=1e4))
    d, es_a, _ = _bounded_pair(t, DEFAULT_TOLERANCES)
    v = es_a.unitary.array
    assert linalg.is_normal(OperatorMatrix(v.conj().T @ d.b.array @ v))
    res = spectral_theorem(t)
    assert res.report.all_passed, res.report.residuals
    np.testing.assert_allclose(res.spectral_measure.points,
                               [-1e4, 0.0, 1e4], rtol=0, atol=1e-4)


@pytest.mark.parametrize("kind", WARM_KINDS)
def test_norm_in_frame_matches_op_norm_2(kind):
    for t, _, _, frame in _warm_cases(kind):
        cold = op_norm_2(t)
        assert abs(_norm_in_frame(t, frame) - cold) <= 1e-13 * cold


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
        "operator norm 1.500e+06 exceeds 1e+06; the reciprocal map would "
        "amplify atom errors beyond recovery (pass force_scale=True to "
        "proceed anyway)")


def test_guard_refuses_large_non_normal_before_normality_test():
    t = generate(OperatorSpec("jordan_block", dim=3, scale=2e6))
    with pytest.raises(ScaleLimit):
        spectral_theorem(t)
    with pytest.raises(NotNormal):
        spectral_theorem(t, force_scale=True)


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
