import numpy as np
import pytest

from spectral_forge.errors import DimensionMismatch, NonFiniteValue
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import OperatorMatrix, Tolerances
from spectral_forge.measures import (
    SpectralMeasure,
    pvm_from_normal,
    pvm_integrate,
    pvm_validate,
)


def test_atoms_of_flip_matrix():
    # projections (I -+ X)/2 onto the two eigenlines
    x = OperatorMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
    e = pvm_from_normal(x)
    assert e.num_atoms == 2
    np.testing.assert_allclose(e.points, [-1, 1], atol=1e-14)
    np.testing.assert_allclose(e.projection(0).array,
                               [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
    np.testing.assert_allclose(e.projection(1).array,
                               [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_multiplicity_collapses_to_one_atom():
    e = pvm_from_normal(OperatorMatrix(np.diag([1.0, 1.0, 2.0])))
    assert e.num_atoms == 2
    assert e.ranks == (2, 1)
    np.testing.assert_allclose(e.projection(0).array,
                               np.diag([1.0, 1.0, 0.0]), atol=1e-14)


def test_near_degenerate_pair_is_merged():
    # gap 1e-12 sits far below 1e-8 of the points' size
    e = pvm_from_normal(OperatorMatrix(np.diag([1.0, 1.0 + 1e-12, 5.0])))
    assert e.num_atoms == 2
    assert e.points[0] == pytest.approx(1.0 + 5e-13, abs=1e-13)


def test_support_radius():
    e = pvm_from_normal(OperatorMatrix(np.diag([2j, -3.0])))
    assert e.support_radius == pytest.approx(3.0)


def test_total_rank_is_dimension():
    for seed in (1, 5):
        t = generate(OperatorSpec("random_normal", dim=9, scale=2.0, seed=seed))
        e = pvm_from_normal(t)
        assert sum(e.ranks) == 9


def test_integrate_identity_reconstructs_source():
    t = generate(OperatorSpec("random_normal", dim=8, scale=3.0, seed=2))
    e = pvm_from_normal(t)
    recon = pvm_integrate(lambda z: z, e)
    assert np.linalg.norm(recon.array - t.array) < 1e-9


def test_integrate_reciprocal_hand_value():
    e = pvm_from_normal(OperatorMatrix(np.diag([0.2, 0.1])))
    inv = pvm_integrate(lambda z: 1.0 / z, e)
    np.testing.assert_allclose(inv.array, np.diag([5.0, 10.0]), atol=1e-12)


def test_integrate_constant_gives_identity():
    e = pvm_from_normal(OperatorMatrix(np.diag([2j, -3.0, 0.5])))
    one = pvm_integrate(lambda z: 1.0, e)
    np.testing.assert_allclose(one.array, np.eye(3), atol=1e-14)


def test_integrate_rejects_non_finite_weight():
    e = pvm_from_normal(OperatorMatrix(np.diag([0.0, 1.0])))
    with pytest.raises(NonFiniteValue, match="atom"):
        pvm_integrate(lambda z: 1.0 / z if z != 0 else np.inf, e)


def test_validate_passes_on_generated_measures():
    for dim, seed in ((2, 3), (7, 8), (16, 9)):
        t = generate(OperatorSpec("random_normal", dim=dim, scale=1.5,
                                  seed=seed))
        report = pvm_validate(pvm_from_normal(t))
        assert report.all_passed, report.residuals


def test_validate_catches_duplicated_projection():
    e = pvm_from_normal(OperatorMatrix(np.diag([1.0, 2.0])))
    p0 = e.projection(0).array
    bad = SpectralMeasure(2, np.array([1.0, 2.0], dtype=complex),
                          projections=(p0, p0))
    report = pvm_validate(bad)
    assert not report.passed["orthogonality"]
    assert not report.passed["completeness"]


def test_validate_catches_non_idempotent_block():
    half = 0.5 * np.eye(2)
    bad = SpectralMeasure(2, np.array([0.0 + 0j, 1.0 + 0j]),
                          projections=(half, np.eye(2) - half))
    report = pvm_validate(bad)
    assert not report.passed["idempotency"]


def test_validate_catches_rank_deficit():
    p = np.diag([1.0, 0.0]).astype(complex)
    bad = SpectralMeasure(2, np.array([0.0 + 0j, 1.0 + 0j]),
                          projections=(p, p.copy()))
    report = pvm_validate(bad)
    assert not report.passed["rank_deficit"] or not report.passed["completeness"]


def test_zero_dense_atom_keeps_ranks_and_stacked_basis_aligned():
    # A zero projection between two genuine atoms: its basis has one
    # column, so its rank must count one, and the rank total exposes it.
    zero = np.zeros((3, 3), dtype=complex)
    bad = SpectralMeasure(3, np.array([0.0, 1.0, 2.0], dtype=complex),
                          projections=(np.diag([1.0, 0.0, 0.0]).astype(complex),
                                       zero,
                                       np.diag([0.0, 1.0, 1.0]).astype(complex)))
    assert sum(bad.ranks) == bad.stacked_basis().shape[1]
    assert pvm_validate(bad).failed == ["rank_deficit"]


def test_validate_catches_colliding_points():
    e = pvm_from_normal(OperatorMatrix(np.diag([1.0, 2.0])))
    bad = SpectralMeasure(2, np.array([1.0, 1.0 + 1e-12], dtype=complex),
                          bases=(e.basis(0), e.basis(1)))
    report = pvm_validate(bad)
    assert not report.passed["min_point_gap"]


def test_explicit_radius_stays_absolute():
    # 1e-3 and 1e-3 + 1e-9 are 1e-6 apart relative to themselves: the
    # default keeps them apart, an explicit radius of 1e-8 joins them
    t = OperatorMatrix(np.diag([1e-3, 1e-3 + 1e-9, 1.0]).astype(complex))
    assert pvm_from_normal(t).ranks == (1, 1, 1)
    assert pvm_from_normal(t, Tolerances(cluster=1e-8)).ranks == (2, 1)
    # at 1e6 the default joins within 1e-8 of the points' size, 0.01
    t = OperatorMatrix(np.diag([1e6, 1e6 + 0.5, 1e6 + 0.505]).astype(complex))
    assert pvm_from_normal(t).ranks == (1, 2)
    assert pvm_from_normal(t, Tolerances(cluster=1.0)).ranks == (3,)


def test_point_gap_record_holds_the_pair_closest_to_joining():
    # the pair 1e-9 apart near 0 clears its radius of about 2e-11; the
    # pair 5e-6 apart at 1e3 is within its radius of about 1e-5, so it
    # decides the record, and value > bound still reads as the verdict
    pts = np.array([0.0, 1e-9, 1e3, 1e3 + 5e-6], dtype=complex)
    e = SpectralMeasure(4, pts, bases=tuple(np.eye(4, dtype=complex)[:, [k]]
                                            for k in range(4)))
    report = pvm_validate(e)
    assert report.residuals["min_point_gap"] == pytest.approx(5e-6)
    assert report.tolerances["min_point_gap"] == pytest.approx(1e-5, rel=1e-3)
    assert report.failed == ["min_point_gap"]
    apart = SpectralMeasure(3, pts[:3], bases=tuple(
        np.eye(3, dtype=complex)[:, [k]] for k in range(3)))
    report = pvm_validate(apart)
    assert report.residuals["min_point_gap"] == pytest.approx(1e-9)
    assert report.tolerances["min_point_gap"] == pytest.approx(
        1e-17 + 100 * np.finfo(float).eps * 1e3)
    assert report.all_passed
    # an explicit radius holds every pair to it alone
    report = pvm_validate(apart, Tolerances(cluster=1e-8))
    assert report.tolerances["min_point_gap"] == 1e-8
    assert report.failed == ["min_point_gap"]


def test_dense_and_factored_storage_agree():
    t = generate(OperatorSpec("random_normal", dim=6, scale=1.0, seed=13))
    e = pvm_from_normal(t)
    dense = SpectralMeasure(6, e.points,
                            projections=tuple(e.projection(i).array
                                              for i in range(e.num_atoms)))
    assert pvm_validate(dense).all_passed
    for i in range(e.num_atoms):
        np.testing.assert_allclose(dense.projection(i).array,
                                   e.projection(i).array, atol=1e-13)
        b = dense.basis(i)
        np.testing.assert_allclose(b @ b.conj().T,
                                   e.projection(i).array, atol=1e-11)


def test_projection_is_exactly_hermitian_in_factored_mode():
    t = generate(OperatorSpec("random_normal", dim=8, scale=2.0, seed=21))
    e = pvm_from_normal(t)
    for i in range(e.num_atoms):
        p = e.projection(i).array
        assert np.array_equal(p, p.conj().T)


def test_constructor_validation():
    pts = np.array([0.0 + 0j])
    with pytest.raises(ValueError):
        SpectralMeasure(2, pts)  # neither storage given
    with pytest.raises(ValueError):
        SpectralMeasure(2, pts, bases=(np.eye(2),),
                        projections=(np.eye(2),))
    with pytest.raises(DimensionMismatch):
        SpectralMeasure(2, np.array([], dtype=complex), bases=())
    with pytest.raises(DimensionMismatch):
        SpectralMeasure(2, pts, bases=(np.eye(3),))
    with pytest.raises(DimensionMismatch):
        SpectralMeasure(2, pts, projections=(np.eye(2), np.eye(2)))


def test_measure_is_read_only():
    e = pvm_from_normal(OperatorMatrix(np.diag([1.0, 2.0])))
    with pytest.raises(ValueError):
        e.points[0] = 9.0


@pytest.mark.parametrize("kind", ["random_normal", "random_unitary",
                                  "laplacian_1d", "momentum_1d"])
def test_block_norm_invariants_match_per_pair_loop(kind):
    # momentum_1d's eigenvalues come in pairs, so its atoms have rank 2
    e = pvm_from_normal(generate(OperatorSpec(kind, dim=12, scale=3.0,
                                              seed=5)))
    stacked = e.stacked_basis()
    gram = stacked.conj().T @ stacked
    off = np.cumsum((0,) + e.ranks)
    idem = ortho = 0.0
    for i in range(e.num_atoms):
        rows = slice(off[i], off[i + 1])
        idem = max(idem, np.linalg.norm(gram[rows, rows]
                                        - np.eye(e.ranks[i])))
        for j in range(i + 1, e.num_atoms):
            ortho = max(ortho, np.linalg.norm(gram[rows, off[j]:off[j + 1]]))
    assert max(e.ranks) == (2 if kind == "momentum_1d" else 1)
    report = pvm_validate(e)
    eps = np.finfo(np.float64).eps
    assert abs(report.residuals["idempotency"] - idem) <= 8 * eps * idem
    assert abs(report.residuals["orthogonality"] - ortho) <= 8 * eps * ortho
