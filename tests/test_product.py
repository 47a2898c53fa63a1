import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectral_forge.decomposition import decompose
from spectral_forge.errors import DimensionMismatch, NotCommuting
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import OperatorMatrix
from spectral_forge.measures import SpectralMeasure, pvm_from_normal, pvm_validate
from spectral_forge.product import (
    ProductMeasure,
    commute_check,
    fubini_check,
    marginal_residuals,
    product_measure,
    product_validate,
    pushforward,
)


def measures_for(t):
    d = decompose(t)
    return pvm_from_normal(d.a), pvm_from_normal(d.b)


def test_product_atoms_of_scalar_pair():
    # decompose(diag(2i,-3)): A = diag(1/5, 1/10), B = diag(2i/5, -3/10);
    # only the two matched rectangles carry mass
    e1, e2 = measures_for(OperatorMatrix(np.diag([2j, -3.0])))
    prod = product_measure(e1, e2)
    assert prod.num_atoms == 2
    np.testing.assert_allclose(prod.t_points, [0.1, 0.2], atol=1e-14)
    np.testing.assert_allclose(prod.w_points, [-0.3, 0.4j], atol=1e-14)
    np.testing.assert_allclose(prod.projection(0).array,
                               np.diag([0.0, 1.0]), atol=1e-13)
    np.testing.assert_allclose(prod.projection(1).array,
                               np.diag([1.0, 0.0]), atol=1e-13)


def test_commute_check_accepts_decomposition_pair():
    t = generate(OperatorSpec("random_normal", dim=8, scale=2.0, seed=6))
    e1, e2 = measures_for(t)
    assert commute_check(e1, e2)


def test_commute_check_rejects_skew_projections():
    # spin flip vs computational basis: the classic non-commuting pair
    ex = pvm_from_normal(OperatorMatrix(np.array([[0, 1], [1, 0]],
                                                 dtype=complex)))
    ez = pvm_from_normal(OperatorMatrix(np.diag([1.0, -1.0])))
    assert not commute_check(ex, ez)
    with pytest.raises(NotCommuting, match="do not commute"):
        product_measure(ez, ex)


def test_commute_check_refuses_measures_of_different_dimensions():
    e2 = pvm_from_normal(OperatorMatrix(np.diag([1.0, 2.0])))
    e3 = pvm_from_normal(OperatorMatrix(np.diag([1.0, 2.0, 3.0])))
    for check in (commute_check, product_measure):
        with pytest.raises(DimensionMismatch, match="different dimensions"):
            check(e2, e3)


def test_product_requires_real_first_factor():
    e1, e2 = measures_for(OperatorMatrix(np.diag([2j, -3.0])))
    with pytest.raises(ValueError):
        product_measure(e2, e1)


def test_product_dimension_mismatch():
    e1, e2 = measures_for(OperatorMatrix(np.diag([2j, -3.0])))
    other = pvm_from_normal(OperatorMatrix(np.eye(3)))
    with pytest.raises(DimensionMismatch):
        product_measure(e1, other)


def test_product_refuses_factor_that_misses_the_identity():
    # a zero dense atom between two genuine ones counts one column, so
    # the ranks (1, 1, 2) sum past n = 3; the parent built 4 atoms on C^3
    zero = np.zeros((3, 3), dtype=complex)
    bad = SpectralMeasure(3, np.array([0.1, 0.2, 0.3], dtype=complex),
                          projections=(np.diag([1.0, 0.0, 0.0]).astype(complex),
                                       zero,
                                       np.diag([0.0, 1.0, 1.0]).astype(complex)))
    good = pvm_from_normal(OperatorMatrix(np.diag([1.0, 2.0, 3.0])))
    assert bad.ranks == (1, 1, 2)
    with pytest.raises(DimensionMismatch, match="factor e1 .*sum to 4"):
        product_measure(bad, good)
    with pytest.raises(DimensionMismatch, match="factor e2 .*sum to 4"):
        product_measure(good, bad)


def test_product_validate_and_marginals():
    t = generate(OperatorSpec("random_normal", dim=10, scale=1.0, seed=14))
    e1, e2 = measures_for(t)
    prod = product_measure(e1, e2)
    assert product_validate(prod).all_passed
    m1, m2 = marginal_residuals(prod, e1, e2)
    assert m1 < 1e-9
    assert m2 < 1e-9


def _dense_marginals(prod, e1, e2):
    """Marginal gaps summed as n x n projections, atom by atom."""
    def gap(keys, points, e):
        return max(float(np.linalg.norm(
            sum((prod.projection(int(k)).array
                 for k in np.flatnonzero(keys == point)),
                np.zeros((prod.dim, prod.dim)))
            - e.projection(i).array)) for i, point in enumerate(points))

    return (gap(prod.t_points, e1.points.real, e1),
            gap(prod.w_points, e2.points, e2))


def test_marginal_residuals_fail_a_broken_product():
    # one atom dropped, or one column turned into another t group's atom:
    # product_validate passes the second, the marginals must not
    t = generate(OperatorSpec("random_normal", dim=10, scale=1.0, seed=14))
    e1, e2 = measures_for(t)
    prod = product_measure(e1, e2)
    bound = 1e-9 * prod.dim
    ts, ws = prod.t_points, prod.w_points
    bases = [prod.basis(k) for k in range(prod.num_atoms)]
    dropped = ProductMeasure(prod.dim, ts[1:], ws[1:], bases=tuple(bases[1:]))
    b = int(np.flatnonzero(ts != ts[0])[0])
    c, s = np.cos(1e-6), np.sin(1e-6)
    turned = list(bases)
    turned[0] = c * bases[0] + s * bases[b]
    turned[b] = c * bases[b] - s * bases[0]
    rotated = ProductMeasure(prod.dim, ts, ws, bases=tuple(turned))
    assert product_validate(rotated).all_passed
    for case, fails in ((prod, False), (dropped, True), (rotated, True)):
        got = marginal_residuals(case, e1, e2)
        np.testing.assert_allclose(got, _dense_marginals(case, e1, e2), rtol=0,
                                   atol=64 * np.finfo(float).eps * prod.dim)
        assert [m > bound for m in got] == [fails, fails]


def test_product_total_rank_is_dimension():
    t = generate(OperatorSpec("random_normal", dim=12, scale=4.0, seed=3))
    e1, e2 = measures_for(t)
    prod = product_measure(e1, e2)
    assert sum(prod.ranks) == 12


def test_product_on_operator_with_multiplicity():
    # repeated eigenvalue keeps a rank-2 rectangle together
    t = OperatorMatrix(np.diag([2j, 2j, -3.0]))
    e1, e2 = measures_for(t)
    prod = product_measure(e1, e2)
    assert prod.num_atoms == 2
    assert sorted(prod.ranks) == [1, 2]


@pytest.mark.parametrize("f1,f2", [
    (lambda t: 1.0, lambda w: w),
    (lambda t: t, lambda w: 1.0),
    (lambda t: 1.0 / t, lambda w: w),
    (lambda t: t, lambda w: np.conj(w)),
])
def test_fubini_on_decomposition_pair(f1, f2):
    t = generate(OperatorSpec("random_normal", dim=7, scale=1.5, seed=29))
    e1, e2 = measures_for(t)
    prod = product_measure(e1, e2)
    assert fubini_check(f1, f2, e1, e2, prod) < 1e-9


def test_pushforward_recovers_source_spectrum():
    t = OperatorMatrix(np.diag([2j, -3.0]))
    e1, e2 = measures_for(t)
    prod = product_measure(e1, e2)
    e = pushforward(prod, lambda x, w: w / x)
    np.testing.assert_allclose(e.points, [-3.0, 2j], atol=1e-12)
    direct = pvm_from_normal(t)
    for i in range(2):
        np.testing.assert_allclose(e.projection(i).array,
                                   direct.projection(i).array, atol=1e-12)


def test_pushforward_constant_map_merges_everything():
    t = generate(OperatorSpec("random_normal", dim=6, scale=1.0, seed=44))
    e1, e2 = measures_for(t)
    prod = product_measure(e1, e2)
    e = pushforward(prod, lambda x, w: 1.0)
    assert e.num_atoms == 1
    np.testing.assert_allclose(e.projection(0).array, np.eye(6), atol=1e-10)


def test_pushforward_orders_atoms_by_their_stored_points():
    # 1 and 1 + 5e-9 join into a rank-10 atom at the rank-weighted mean
    # 1 + 4.5e-9, which sorts after 1 + 3e-9 + 3e-8i although the plain
    # mean 1 + 2.5e-9 of the two images sorts before it
    eye = np.eye(11)
    prod = ProductMeasure(11, np.ones(3),
                          np.array([1.0, 1.0 + 5e-9, 1.0 + 3e-9 + 3e-8j]),
                          bases=(eye[:, :1], eye[:, 1:10], eye[:, 10:]))
    e = pushforward(prod, lambda t, w: w)
    np.testing.assert_allclose(e.points, [1.0 + 3e-9 + 3e-8j, 1.0 + 4.5e-9],
                               rtol=0, atol=4 * np.finfo(float).eps)
    assert e.ranks == (1, 10)
    assert np.lexsort((e.points.imag, e.points.real)).tolist() == [0, 1]


def test_pushforward_rejects_non_finite_image():
    t = OperatorMatrix(np.diag([2j, -3.0]))
    e1, e2 = measures_for(t)
    prod = product_measure(e1, e2)
    from spectral_forge.errors import NonFiniteValue
    with pytest.raises(NonFiniteValue, match="not finite"):
        pushforward(prod, lambda x, w: np.inf)


def test_product_is_reconstruction_grade():
    # integrate phi(t, w) = w/t over the product and compare with T
    t = generate(OperatorSpec("random_normal", dim=9, scale=2.0, seed=77))
    e1, e2 = measures_for(t)
    prod = product_measure(e1, e2)
    recon = prod.integrate(lambda x, w: w / x)
    assert np.linalg.norm(recon.array - t.array) < 1e-8


def test_product_measure_construction_checks():
    from spectral_forge.errors import NonFiniteValue
    from spectral_forge.product import ProductMeasure
    eye = np.eye(2)
    ts, ws = np.array([0.1, 0.2]), np.array([-0.3, 0.4j])
    with pytest.raises(DimensionMismatch):
        ProductMeasure(2, ts, ws[:1], projections=(eye, eye))
    with pytest.raises(DimensionMismatch):
        ProductMeasure(2, np.array([]), np.array([], dtype=complex), bases=())
    with pytest.raises(NonFiniteValue):
        ProductMeasure(2, np.array([0.1, np.nan]), ws, bases=(eye[:, :1], eye[:, 1:]))
    with pytest.raises(NonFiniteValue):
        ProductMeasure(2, ts, np.array([0.0, np.inf * 1j]),
                       bases=(eye[:, :1], eye[:, 1:]))
    with pytest.raises(ValueError, match="exactly one"):
        ProductMeasure(2, ts, ws)
    with pytest.raises(ValueError, match="exactly one"):
        ProductMeasure(2, ts, ws, bases=(eye[:, :1], eye[:, 1:]),
                       projections=(eye, eye))
    with pytest.raises(DimensionMismatch):
        ProductMeasure(2, ts, ws, bases=(np.eye(3)[:, :1], eye[:, 1:]))
    with pytest.raises(DimensionMismatch):
        ProductMeasure(2, ts, ws, projections=(eye, np.eye(3)))
    with pytest.raises(DimensionMismatch):
        ProductMeasure(2, ts, ws, bases=(eye[:, :1],))
    prod = ProductMeasure(2, ts, ws, bases=(eye[:, :1], eye[:, 1:]))
    for arr in (prod.t_points, prod.w_points, prod.bases[0], prod.bases[1]):
        assert not arr.flags.writeable
    assert prod.num_atoms == 2
    assert prod.ranks == (1, 1)
    dense = ProductMeasure(2, ts, ws, projections=(np.diag([1.0, 0.0]),
                                                   np.diag([0.0, 1.0])))
    assert not any(p.flags.writeable for p in dense.projections)


def test_product_validate_on_dense_read_back():
    from spectral_forge import io
    t = generate(OperatorSpec("random_normal", dim=8, scale=2.0, seed=19))
    e1, e2 = measures_for(t)
    prod = product_measure(e1, e2)
    dense = io.product_from_doc(io.product_to_doc(prod))
    assert dense.bases is None and dense.rectangle_residual is None
    report = product_validate(dense)
    assert report.all_passed
    assert list(report.residuals) == ["idempotency", "hermitian_defect",
                                      "orthogonality", "completeness",
                                      "rank_deficit"]
    # the dense store keeps the projections as written, ranks from traces
    assert dense.ranks == prod.ranks
    for i in range(dense.num_atoms):
        np.testing.assert_array_equal(dense.projection(i).array,
                                      prod.projection(i).array)


def test_product_integrate_names_the_pair_on_non_finite():
    from spectral_forge.errors import NonFiniteValue
    e1, e2 = measures_for(OperatorMatrix(np.diag([2j, -3.0])))
    prod = product_measure(e1, e2)
    with pytest.raises(NonFiniteValue,
                       match=r"atom 1 \(t=0\.2, w=0\.4j\)"):
        prod.integrate(lambda x, w: np.inf if x > 0.15 else 1.0)


def test_screened_pairs_match_per_block_norms():
    # the one-reduction screen against the per-pair loop it replaced
    from spectral_forge.product import _pairs
    t = generate(OperatorSpec("random_normal", dim=10, scale=2.0, seed=31))
    e1, e2 = measures_for(t)
    s1, s2 = e1.stacked_basis(), e2.stacked_basis()
    cross = s1.conj().T @ s2
    off1 = np.cumsum((0,) + e1.ranks)
    off2 = np.cumsum((0,) + e2.ranks)
    floor = 1e-3
    expected = []
    for i in range(e1.num_atoms):
        for j in range(e2.num_atoms):
            block = cross[off1[i]:off1[i + 1], off2[j]:off2[j + 1]]
            mass = float(np.linalg.norm(block))
            if mass > floor:
                expected.append((i, j, block, mass))
    pairs = list(_pairs(e1, e2, floor))
    assert [(i, j) for i, j, *_ in pairs] == [(i, j) for i, j, *_ in expected]
    for (_, _, ui, wj, got, mass), (i, j, block, want) in zip(pairs, expected):
        np.testing.assert_array_equal(ui, e1.basis(i))
        np.testing.assert_array_equal(wj, e2.basis(j))
        np.testing.assert_array_equal(got, block)
        assert np.shares_memory(ui, s1) and np.shares_memory(wj, s2)
        assert mass == pytest.approx(want, rel=8 * np.finfo(float).eps)


@pytest.mark.parametrize("factor", ["e1", "e2"])
@pytest.mark.parametrize("scale", [0.9, 1.0 + 1e-6])
def test_product_refuses_factor_basis_that_is_not_orthonormal(factor, scale):
    # the rank-space pair algebra assumes u* u = I; a scaled basis keeps
    # the ranks summing to n, so it must be refused by its defect
    e1, e2 = measures_for(OperatorMatrix(np.diag([2j, -3.0, 1.0 + 1.0j])))
    factors = {"e1": e1, "e2": e2}
    e = factors[factor]
    bases = [e.basis(k) for k in range(e.num_atoms)]
    bases[1] = scale * bases[1]
    factors[factor] = SpectralMeasure(e.dim, e.points, bases=tuple(bases))
    message = f"factor {factor} atom 1 has no orthonormal basis"
    with pytest.raises(DimensionMismatch, match=message):
        product_measure(factors["e1"], factors["e2"])
    with pytest.raises(DimensionMismatch, match=message):
        commute_check(factors["e1"], factors["e2"])


def _unitary(rng, n, spread=1.0):
    """QR factor of ``I + spread * G`` for a complex Gaussian G."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(np.eye(n) + spread * g)
    return q


def test_basis_defects_match_per_atom_products():
    # the batched defect against the per-atom loop, over mixed ranks
    from spectral_forge.product import _basis_defects
    q = _unitary(np.random.default_rng(5), 9)
    off = np.array([0, 1, 4, 6, 8, 9])
    q[:, 4:6] *= 1.0 + 1e-3
    expected = [np.linalg.norm(q[:, a:b].conj().T @ q[:, a:b] - np.eye(b - a))
                for a, b in zip(off[:-1], off[1:])]
    np.testing.assert_allclose(_basis_defects(q, off), expected, rtol=0,
                               atol=8 * np.finfo(float).eps * 9)
    assert np.argmax(_basis_defects(q, off) > 1e-6) == 2


PROPERTY = settings(max_examples=300, derandomize=True, database=None,
                    deadline=None)


def _pair(n, r1, r2, shift, log_delta, seed):
    """Two-atom factors whose first atoms share columns of one unitary.

    Such factors commute; a ``log_delta`` tilts the second factor by a
    unitary within about 10**log_delta of the identity.  Returns both
    measures and the largest dense commutator norm over their pairs.
    """
    rng = np.random.default_rng(seed)
    q = _unitary(rng, n, spread=10.0)
    q2 = q if log_delta is None else q @ _unitary(rng, n, 10.0 ** log_delta)
    cols = (np.arange(r2) + shift) % n
    rest = np.setdiff1d(np.arange(n), cols)
    e1 = SpectralMeasure(n, np.array([0.1, 0.2]), bases=(q[:, :r1], q[:, r1:]))
    e2 = SpectralMeasure(n, np.array([0.3, 0.4j]),
                         bases=(q2[:, cols], q2[:, rest]))
    ps = [e1.projection(i).array for i in range(2)]
    qs = [e2.projection(j).array for j in range(2)]
    return e1, e2, max(float(np.linalg.norm(p @ r - r @ p))
                       for p in ps for r in qs)


PAIRS = dict(n=st.integers(4, 12), r1=st.integers(1, 3), r2=st.integers(1, 3),
             shift=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))


@PROPERTY
@given(log_delta=st.none() | st.floats(-13.0, 0.0) | st.floats(-9.5, -7.0),
       **PAIRS)
def test_commute_check_agrees_with_dense_commutator(n, r1, r2, shift,
                                                     log_delta, seed):
    # the last range of tilts puts commutators near the default
    # threshold, 1e-9 n + 1e-12
    from spectral_forge.product import _commute_threshold
    e1, e2, commutator = _pair(n, r1, r2, shift, log_delta, seed)
    threshold = _commute_threshold(n)
    assume(abs(commutator / threshold - 1.0) > 1e-3)
    commutes = commute_check(e1, e2)
    assert commutes == (commutator <= threshold)
    if not commutes:
        with pytest.raises(NotCommuting, match="do not commute"):
            product_measure(e1, e2)


@PROPERTY
@given(log_delta=st.none() | st.floats(-13.0, 0.0), **PAIRS)
@example(n=6, r1=1, r2=3, shift=1, log_delta=None, seed=2)
@example(n=6, r1=3, r2=1, shift=1, log_delta=None, seed=2)
@example(n=6, r1=1, r2=3, shift=1, log_delta=-3.0, seed=2)
@example(n=6, r1=3, r2=1, shift=1, log_delta=-3.0, seed=2)
def test_rectangle_gap_matches_dense_product(n, r1, r2, shift, log_delta,
                                             seed):
    # pair by pair, tilted or not, against the literal n x n product; the
    # examples put a one-column atom on either side of the closed form
    from spectral_forge.product import _intersection, _outside_norm, _pairs
    e1, e2, _ = _pair(n, r1, r2, shift, log_delta, seed)
    for _, _, u, w, block, _ in _pairs(e1, e2, 0.0):
        atom = _intersection(u, block, _outside_norm(u, w, block))
        if atom is None:
            continue
        z, gap = atom
        dense = np.linalg.norm(z @ z.conj().T - (u @ block) @ w.conj().T)
        assert abs(gap - dense) <= 8 * np.finfo(float).eps * n


def test_product_measure_forms_no_dense_array_per_pair():
    # the screen holds two stacked bases, the conjugated copy its product
    # reads, the cross matrix and its squared moduli (4.5 n x n complex
    # arrays); beyond that only the atom bases and O(n r) per pair
    import tracemalloc
    n = 256
    d = np.diag(generate(OperatorSpec("multiplication", dim=n, scale=100.0,
                                      seed=7)).array)
    order = np.random.default_rng(7).permutation(n)
    e1, e2 = measures_for(OperatorMatrix(np.diag(d[order])))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        prod = product_measure(e1, e2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    square = 16 * n * n
    atoms = sum(b.nbytes for b in prod.bases)
    assert prod.num_atoms == n
    assert peak <= 4.5 * square + atoms + 64 * 16 * n


def test_product_measure_peak_excludes_pair_views_at_construction():
    # while pairs are screened, two stacked bases, the cross matrix, its
    # real block masses and the growing atom bases are alive (4.5 n x n
    # complex arrays); the pair views must not keep the first three alive
    # while ProductMeasure copies the atom bases (5.1 n x n arrays)
    import tracemalloc
    n = 256
    d = np.diag(generate(OperatorSpec("multiplication", dim=n, scale=100.0,
                                      seed=7)).array)
    order = np.random.default_rng(7).permutation(n)
    e1, e2 = measures_for(OperatorMatrix(np.diag(d[order])))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        prod = product_measure(e1, e2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert prod.num_atoms == n
    assert peak <= 4.5 * 16 * n * n + 64 * 16 * n


def test_product_measure_peak_with_one_full_rank_atom():
    # the factors of random_unitary: A = I / 2 is one atom of rank n and
    # B = T / 2 has n atoms of rank one.  The basis check of the rank-n
    # atom set the peak while it gathered the atom's columns and formed
    # an identity (3.6 n x n complex arrays; 6.2 when these pairs were
    # batched); on a view of the columns the peak is about 1.1.  Each
    # pair's outside norm stays O(n) rather than an n x n outer product
    import tracemalloc
    from spectral_forge.product import _outside_norm
    n = 256
    rng = np.random.default_rng(7)
    u = generate(OperatorSpec("random_unitary", dim=n, scale=1.0,
                              seed=7)).array
    q = _unitary(rng, n)
    e1 = SpectralMeasure(n, np.array([0.5]), bases=(u,))
    e2 = SpectralMeasure(n, 0.5 * np.exp(2j * np.pi * np.arange(n) / n),
                         bases=tuple(q[:, k:k + 1] for k in range(n)))
    block = u.conj().T @ q[:, :1]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        prod = product_measure(e1, e2)
        peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        _outside_norm(u, q[:, :1], block)
        pair_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    atoms = sum(b.nbytes for b in prod.bases)
    assert prod.num_atoms == n and set(prod.ranks) == {1}
    assert peak <= 4.5 * 16 * n * n + atoms + 64 * 16 * n
    assert peak <= 1.5 * 16 * n * n + atoms
    assert pair_peak <= 8 * 16 * n


def _rank_one_atoms(basis):
    n = basis.shape[1]
    return SpectralMeasure(n, np.arange(1, n + 1) / (n + 1.0),
                           bases=tuple(basis[:, [k]] for k in range(n)))


def test_loose_rtol_refusals_past_the_commute_test(monkeypatch):
    # under a loose relative tolerance rel(n), pairs that pass the commute
    # test can still fail to form atoms; at rel(n) = 1e-3 the commute test
    # refuses them first.  rel(n) = linalg.REL n, so REL is patched to
    # the wanted rel(n) / n
    from spectral_forge import linalg

    def loose(rel, n):
        monkeypatch.setattr(linalg, "REL", rel / n)

    n = 128
    fourier = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    standard = _rank_one_atoms(np.eye(n, dtype=complex))
    spread = _rank_one_atoms(fourier / np.sqrt(n))
    loose(0.02, n)
    with pytest.raises(NotCommuting, match="no atom pair survived pruning"):
        product_measure(standard, spread)
    # two rank-2 atoms tilted so that every principal cosine^2 is 0.2
    c, s = np.sqrt(0.2), np.sqrt(0.8)
    tilt = np.array([[c, 0, -s, 0], [0, c, 0, -s],
                     [s, 0, c, 0], [0, s, 0, c]], dtype=complex)
    flat = SpectralMeasure(4, [0.1, 0.2], bases=(np.eye(4)[:, :2],
                                                 np.eye(4)[:, 2:]))
    tilted = SpectralMeasure(4, [-0.1, 0.1], bases=(tilt[:, :2], tilt[:, 2:]))
    loose(0.1, 4)
    with pytest.raises(NotCommuting, match="no stable intersection"):
        product_measure(flat, tilted)
    for e1, e2 in ((standard, spread), (flat, tilted)):
        loose(1e-3, e1.dim)
        with pytest.raises(NotCommuting, match="do not commute"):
            product_measure(e1, e2)
