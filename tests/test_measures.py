import dataclasses
from functools import partial

import numpy as np
import pytest

from spectral_forge.errors import DimensionMismatch, NonFiniteValue
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import OperatorMatrix, Tolerances, _norm
from spectral_forge.measures import (
    SpectralMeasure,
    _Blocks,
    _reconstruction_check,
    pvm_from_normal,
    pvm_integrate,
    pvm_validate,
)


def test_measure_names_one_of_three_operators():
    basis = [np.eye(2)]
    assert SpectralMeasure(2, [1.0], bases=basis).of == "T"
    for of in ("T", "A", "B"):
        assert SpectralMeasure(2, [1.0], bases=basis, of=of).of == of
    for of in ("X", "t", None):
        with pytest.raises(ValueError, match="of must be T, A or B"):
            SpectralMeasure(2, [1.0], bases=basis, of=of)


def test_measure_of_t_alone_carries_a_radius():
    basis = [np.eye(2)]
    assert SpectralMeasure(2, [1.0], bases=basis).cluster is None
    assert SpectralMeasure(2, [1.0], bases=basis, cluster=1e-6).cluster == 1e-6
    for of in ("A", "B"):
        assert SpectralMeasure(2, [1.0], bases=basis, of=of).cluster is None
        with pytest.raises(ValueError, match="carries no cluster radius"):
            SpectralMeasure(2, [1.0], bases=basis, of=of, cluster=1e-6)
    # a bad radius is refused by the one check of a radius, as in
    # Tolerances (linalg._radius)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="cluster must be strictly "
                                             "positive"):
            SpectralMeasure(2, [1.0], bases=basis, cluster=bad)


def test_measure_of_t_carries_the_radius_it_joined_by():
    t = OperatorMatrix(np.diag([1e-3, 1e-3 + 1e-9, 1.0]).astype(complex))
    assert pvm_from_normal(t).cluster is None
    e = pvm_from_normal(t, Tolerances(cluster=1e-8))
    assert e.cluster == 1e-8 and e.ranks == (2, 1)
    # validated by it: the two atoms 1 - 1e-3 apart clear 1e-8 ...
    assert pvm_validate(e).tolerances["min_point_gap"] == 1e-8
    # ... and a wider radius judges them as joining
    assert not pvm_validate(dataclasses.replace(e, cluster=1.0)).all_passed


def test_measure_of_a_joins_its_points_by_their_own_size():
    # E_A's two smallest weights are 2.1e-14 apart near 1.2e-12, under
    # 100 eps of the weight 1 of T's null modes: kept apart in a measure
    # of A, and judged by that rule; the same atoms labelled T are not
    from spectral_forge.pipeline import spectral_theorem
    t = generate(OperatorSpec("momentum_1d", dim=48, scale=9e5))
    e1 = spectral_theorem(t).e1
    assert e1.of == "A"
    assert pvm_validate(e1).all_passed
    as_t = SpectralMeasure(e1.dim, e1.points, bases=e1.bases)
    assert pvm_validate(as_t).failed == ["min_point_gap"]


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


def test_zero_dense_atom_counts_rank_one():
    # A zero projection between two genuine atoms: its trace rounds to 0,
    # its rank counts one, and the rank total exposes it.
    zero = np.zeros((3, 3), dtype=complex)
    bad = SpectralMeasure(3, np.array([0.0, 1.0, 2.0], dtype=complex),
                          projections=(np.diag([1.0, 0.0, 0.0]).astype(complex),
                                       zero,
                                       np.diag([0.0, 1.0, 1.0]).astype(complex)))
    assert bad.ranks == (1, 1, 2)
    assert bad.offsets.tolist() == [0, 1, 2, 4]
    assert bad.num_atoms == 3
    assert pvm_validate(bad).failed == ["rank_deficit"]


def test_dense_store_has_no_basis():
    # dense atoms read back from a file are validated, integrated and
    # written; whatever works on bases refuses them with one ValueError
    from spectral_forge import io
    from spectral_forge.pipeline import spectral_theorem
    from spectral_forge.product import (commute_check, marginal_residuals,
                                        product_measure, product_validate,
                                        pushforward)
    result = spectral_theorem(generate(OperatorSpec("momentum_1d", dim=6,
                                                    scale=1.0, seed=13)))
    e1, e2 = (io.pvm_from_doc(io.pvm_to_doc(e)) for e in (result.e1, result.e2))
    prod = io.product_from_doc(io.product_to_doc(result.product))
    calls = [partial(e.basis, 0) for e in (e1, e2, prod)]
    calls += [e.stacked_basis for e in (e1, e2, prod)]
    calls += [partial(product_measure, e1, result.e2),
              partial(product_measure, result.e1, e2),
              partial(commute_check, e1, e2),
              partial(marginal_residuals, prod, result.e1, result.e2),
              partial(marginal_residuals, result.product, e1, result.e2),
              partial(pushforward, prod, lambda t, w: w / t)]
    for call in calls:
        with pytest.raises(ValueError, match="dense projections have no basis"):
            call()
    for dense, built, to_doc in ((e1, result.e1, io.pvm_to_doc),
                                 (e2, result.e2, io.pvm_to_doc),
                                 (prod, result.product, io.product_to_doc)):
        assert dense.ranks == built.ranks
        np.testing.assert_array_equal(dense.offsets, built.offsets)
        assert io.dumps(to_doc(dense)) == io.dumps(to_doc(built))
    assert pvm_validate(e1).all_passed and product_validate(prod).all_passed
    np.testing.assert_allclose(pvm_integrate(lambda z: z, e2).array,
                               result.decomposition.b.array, atol=1e-12)


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
    # an explicit radius, carried by the measure, holds every pair to it
    # alone
    report = pvm_validate(dataclasses.replace(apart, cluster=1e-8))
    assert report.tolerances["min_point_gap"] == 1e-8
    assert report.failed == ["min_point_gap"]


def test_dense_and_factored_storage_agree():
    # every stage of the pipeline against its dense io round trip: the
    # same verdicts and ranks, and the factored side's Hermitian defect
    # is 0 by construction (momentum_1d has rank-2 atoms)
    from spectral_forge import io
    from spectral_forge.pipeline import spectral_theorem
    from spectral_forge.product import product_validate
    for kind in ("random_normal", "momentum_1d"):
        result = spectral_theorem(generate(OperatorSpec(kind, dim=6,
                                                        scale=1.0, seed=13)))
        stages = [(e, pvm_validate, io.pvm_from_doc(io.pvm_to_doc(e)))
                  for e in (result.e1, result.e2, result.spectral_measure)]
        stages.append((result.product, product_validate, io.product_from_doc(
            io.product_to_doc(result.product))))
        for e, validate, dense in stages:
            assert dense.projections.shape == (e.num_atoms, 6, 6)
            factored_report, dense_report = validate(e), validate(dense)
            assert factored_report.all_passed, factored_report.residuals
            # a product document carries no rectangle residual
            assert dense_report.passed.items() <= factored_report.passed.items()
            assert factored_report.residuals["hermitian_defect"] == 0.0
            assert dense.ranks == e.ranks
            np.testing.assert_array_equal(dense.offsets, e.offsets)
            for i in range(e.num_atoms):
                np.testing.assert_allclose(dense.projection(i).array,
                                           e.projection(i).array, atol=1e-13)


def test_validating_built_measures_forms_no_projection(monkeypatch):
    # factored atoms are judged from their Gram matrix alone
    from spectral_forge.measures import _AtomStore
    from spectral_forge.pipeline import spectral_theorem
    from spectral_forge.product import product_validate
    result = spectral_theorem(generate(OperatorSpec("momentum_1d", dim=12,
                                                    scale=3.0, seed=5)))
    e, prod = result.spectral_measure, result.product
    want = pvm_validate(e).to_json_dict(), product_validate(prod).to_json_dict()

    def refuse(self, i):
        raise AssertionError(f"projection {i} formed")

    monkeypatch.setattr(_AtomStore, "projection", refuse)
    got = pvm_validate(e).to_json_dict(), product_validate(prod).to_json_dict()
    assert got == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_atoms_are_refused_at_construction(bad):
    from spectral_forge.product import ProductMeasure
    basis = np.eye(2, dtype=complex)
    basis[0, 1] = bad
    proj = np.diag([0.0, 1.0]).astype(complex)
    proj[1, 1] = bad
    blocks = (basis[:, :1], basis[:, 1:])
    dense = (np.diag([1.0, 0.0]), proj)
    ts, ws = np.array([0.1, 0.2]), np.array([-0.3, 0.4j])
    for build in (lambda: SpectralMeasure(2, ws, bases=blocks),
                  lambda: SpectralMeasure(2, ws, projections=dense),
                  lambda: ProductMeasure(2, ts, ws, bases=blocks),
                  lambda: ProductMeasure(2, ts, ws, projections=dense)):
        with pytest.raises(NonFiniteValue, match="finite"):
            build()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_non_finite_point_is_refused_at_construction(bad):
    with pytest.raises(NonFiniteValue, match="atom points must be finite"):
        SpectralMeasure(2, [0.5, bad], bases=tuple(np.eye(2)[:, [k]]
                                                   for k in range(2)))


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
    with pytest.raises(DimensionMismatch):
        SpectralMeasure(2, np.array([0.0, 1.0], dtype=complex),
                        projections=(np.eye(2), np.eye(3)))


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


@pytest.mark.parametrize("order", ["C", "F"])
def test_reconstruction_residual_is_the_plain_sum_to_the_bit(order):
    # the sum is formed in row blocks and conjugated in place (n = 100
    # spans two blocks); its residual's norm is that of one product over
    # the whole basis, bit for bit.  momentum_1d's atoms have rank 2
    n = 100
    t = generate(OperatorSpec("momentum_1d", dim=n, scale=3.0))
    e = pvm_from_normal(t)
    stacked = np.array(e.stacked_basis(), order=order)
    e = SpectralMeasure(n, e.points,
                        bases=_Blocks(stacked, np.cumsum((0,) + e.ranks)))
    assert e.stacked_basis().flags[f"{order}_CONTIGUOUS"]
    assert max(e.ranks) == 2
    plain = (stacked * np.repeat(e.points, e.ranks)) @ stacked.conj().T
    name, value, _ = _reconstruction_check(t, e)
    assert name == "reconstruction" and value > 0.0
    assert value == _norm(plain - t.array)


@pytest.mark.parametrize("atoms", [1, 2, 5])
def test_dense_array_passes_match_per_atom_loop(atoms):
    # tampered dense atoms (column blocks of a unitary, plus noise): the
    # batched checks and weighted sum take the same sums in the same
    # order as one np.linalg.norm per atom and per pair, so they agree
    # to the bit
    rng = np.random.default_rng(atoms)
    n = 2 * atoms + 1
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    cuts = list(range(2, 2 * atoms, 2))
    mats = [b @ b.conj().T + 1e-9 * rng.standard_normal((n, n))
            for b in np.split(q, cuts, axis=1)]
    e = SpectralMeasure(n, np.arange(atoms) + 0.5j, projections=tuple(mats))
    residuals = pvm_validate(e).residuals
    assert residuals["idempotency"] == max(np.linalg.norm(p @ p - p)
                                           for p in mats)
    assert residuals["hermitian_defect"] == max(np.linalg.norm(p - p.conj().T)
                                                for p in mats)
    assert residuals["orthogonality"] == max(
        [np.linalg.norm(mats[i] @ mats[j])
         for i in range(atoms) for j in range(i + 1, atoms)], default=0.0)
    assert residuals["completeness"] == np.linalg.norm(sum(mats) - np.eye(n))
    assert e.ranks == tuple(max(1, round(np.trace(p).real)) for p in mats)
    total = np.zeros((n, n), dtype=complex)
    for z, p in zip(e.points, mats):
        total += (z * z - 1j) * p
    assert np.array_equal(pvm_integrate(lambda z: z * z - 1j, e).array, total)
