"""Batched atom bookkeeping against the per-atom loops it replaced.

The references below keep the earlier forms as test oracles: the
dict-based ``cluster_points``, the K step of ``normal_eig`` taken one
cluster at a time, and the measure built one cluster at a time.  The
batched code must give the same clusters in the same order, the same
atom ranks, and points and projections that agree to rounding.
``product_measure`` is written out once more, pair by pair over bases
stacked from ``basis(i)``: the package's one loop over ``_pairs`` must
give the same atoms, the same refusals and the same first failing pair.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_forge import linalg, measures, pipeline, product
from spectral_forge.decomposition import decompose
from spectral_forge.errors import DimensionMismatch, NotCommuting
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import (
    OperatorMatrix,
    Tolerances,
    _eigensystem,
    _jacobi_hermitian,
    cluster_points,
)
from spectral_forge.measures import (
    PVM_FACTOR,
    SpectralMeasure,
    _block_norms,
    _measure_in_frame,
    _merged,
    pvm_from_normal,
)
from spectral_forge.product import (
    _basis_defects,
    _commute_threshold,
    _intersection,
    _outside_norm,
    product_measure,
    pushforward,
)

EPS = np.finfo(float).eps


def ref_radii(points, tol=Tolerances(), of="T"):
    """Join radius of every pair of points, written out pair by pair.

    An explicit ``tol.cluster`` is one absolute radius for a measure of
    T.  Otherwise a pair joins within 1e-8 of its larger magnitude plus
    100 eps of the largest, or in a measure of A within 3e-8 plus 100
    eps of its larger magnitude, and never past ``tol.cluster_radius``
    of the largest.
    """
    mags = np.abs(np.asarray(points, dtype=np.complex128))
    top = float(np.max(mags))
    if of == "T" and tol.cluster is not None:
        return tol.cluster
    size = np.maximum(mags[:, None], mags[None, :])
    rel, floor = (3e-8, size) if of == "A" else (1e-8, top)
    return np.minimum(tol.cluster_radius(top), rel * size + 100 * EPS * floor)


def ref_cluster_points(points, radius):
    """Union-find over pairs within ``radius``, a scalar or one per pair."""
    pts = np.asarray(points, dtype=np.complex128)
    k = pts.shape[0]
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if k > 1:
        gaps = np.abs(pts[:, None] - pts[None, :])
        for i, j in np.argwhere(gaps <= radius):
            if i < j:
                ri, rj = find(int(i)), find(int(j))
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    clusters = [np.array(sorted(ix), dtype=np.intp) for ix in groups.values()]
    means = [pts[c].mean() for c in clusters]
    order = sorted(
        range(len(clusters)),
        key=lambda g: (means[g].real, means[g].imag, int(clusters[g][0])),
    )
    return [clusters[g] for g in order]


def ref_normal_eig(m, tol=Tolerances()):
    a = m.array
    n = m.dim
    h_vals, h_vecs = _jacobi_hermitian(a)
    order = np.argsort(h_vals, kind="stable")
    h_vals = h_vals[order]
    h_vecs = h_vecs[:, order]
    radius = tol.cluster_radius(float(np.max(np.abs(h_vals))))
    k = (a - a.conj().T) / 2.0j
    vals = np.empty(n, dtype=np.complex128)
    vecs = np.empty((n, n), dtype=np.complex128)
    noise = n * EPS * np.linalg.norm(a)
    col = 0
    for cluster in ref_cluster_points(h_vals.astype(np.complex128), radius):
        basis = h_vecs[:, cluster]
        kb = basis.conj().T @ k @ basis
        if np.linalg.norm(kb - np.diag(kb.diagonal())) <= noise:
            k_vals, k_vecs = kb.diagonal().real, np.eye(cluster.size)
        else:
            k_vals, k_vecs = _jacobi_hermitian(kb)
        cols = slice(col, col + cluster.size)
        vals[cols] = h_vals[cluster] @ np.abs(k_vecs) ** 2 + 1.0j * k_vals
        vecs[:, cols] = basis @ k_vecs
        col += cluster.size
    return _eigensystem(vals, vecs)


def ref_measure(es, tol=Tolerances()):
    vals = es.eigenvalues
    clusters = ref_cluster_points(vals, ref_radii(vals, tol))
    points = np.array([vals[c].mean() for c in clusters])
    bases = tuple(es.unitary.array[:, c] for c in clusters)
    return SpectralMeasure(es.dim, points, bases=bases)


def ref_product_measure(e1, e2):
    n = e1.dim
    threshold = _commute_threshold(n)
    # the dust threshold product_measure once had: pairs at most this
    # heavy were dropped unexamined, which never changed its atoms
    prune = 1e-10 * n
    screen = threshold / 4.0
    s1 = np.hstack([e1.basis(i) for i in range(e1.num_atoms)])
    s2 = np.hstack([e2.basis(j) for j in range(e2.num_atoms)])
    off1 = np.cumsum((0,) + e1.ranks)
    off2 = np.cumsum((0,) + e2.ranks)
    for name, s, off in (("e1", s1, off1), ("e2", s2, off2)):
        defects = _basis_defects(s, off)
        k = int(np.argmax(defects > threshold))
        if defects[k] > threshold:
            raise DimensionMismatch(
                f"factor {name} atom {k} has no orthonormal basis: "
                f"||u* u - I||_F = {defects[k]:.3e}, beyond {threshold:.3e}")
    cross = s1.conj().T @ s2
    masses = _block_norms(cross, off1, off2)
    t_points, w_points, bases = [], [], []
    rectangle = 0.0
    for i, j in zip(*np.nonzero(masses > min(prune, screen))):
        rows = slice(off1[i], off1[i + 1])
        cols = slice(off2[j], off2[j + 1])
        ui, wj, block = s1[:, rows], s2[:, cols], cross[rows, cols]
        mass = float(masses[i, j])
        outside = _outside_norm(ui, wj, block)
        if mass > screen and np.sqrt(2.0) * outside > threshold:
            raise NotCommuting("projections of the two measures do not commute")
        if mass <= prune:
            continue
        atom = _intersection(ui, block, outside)
        if atom is None:
            if mass > 0.1:
                raise NotCommuting(
                    f"pair ({i}, {j}) has projection product mass "
                    f"{mass:.3e} but no stable intersection")
            continue
        z, gap = atom
        rectangle = max(rectangle, gap)
        t_points.append(float(e1.points[i].real))
        w_points.append(complex(e2.points[j]))
        bases.append(z)
    if not t_points:
        raise NotCommuting("no atom pair survived pruning")
    bound = PVM_FACTOR * linalg.rel(n)
    if rectangle > bound:
        raise NotCommuting(
            f"product projections deviate from P_i Q_j by {rectangle:.3e}, "
            f"beyond {bound:.3e}")
    return product.ProductMeasure(n, np.array(t_points), np.array(w_points),
                                  bases=tuple(bases),
                                  rectangle_residual=rectangle)


def _ring_and_pair():
    # a ring of 12 points of radius 3.5 (chained at radius 2) and the pair
    # {-1, 1} (joined at gap exactly 2) have exactly equal means 0; the
    # ring's points come as (p, -p) so its sums cancel exactly
    half = 3.5 * np.exp(1j * np.pi * np.arange(6) / 6)
    ring = np.ravel(np.column_stack([half, -half]))
    return np.concatenate([[50.0 + 0j], ring, [-1.0, 1.0]])


CLUSTER_CASES = {
    "chain": (np.array([0.0, 1.0, 2.0, 3.5, 2.9]), 1.0),
    "repeated": (np.array([2.0, 1.0, 2.0, 1.0, 3.0, 2.0]), 1e-8),
    "real_ties": (np.array([1 + 1j, 1 - 1j, 1 + 0j, 0 + 1j, 0 - 1j]), 0.5),
    "mean_ties": (_ring_and_pair(), 2.0),
    "mean_ties_reversed": (_ring_and_pair()[::-1].copy(), 2.0),
    "separate": (np.arange(40.0)[::-1] * (1 + 0.5j), 0.1),
    "single": (np.array([3.0 - 1j]), 1e-8),
}


@pytest.mark.parametrize("case", sorted(CLUSTER_CASES))
def test_cluster_points_match_dict_reference(case):
    points, radius = CLUSTER_CASES[case]
    got = cluster_points(points, radius)
    want = ref_cluster_points(points, radius)
    assert [g.tolist() for g in got] == [g.tolist() for g in want]
    _, _, means = linalg._clusters(points, radius)
    np.testing.assert_allclose(means, [points[c].mean() for c in want],
                               rtol=0, atol=8 * EPS * np.max(np.abs(points)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(centers=st.lists(st.complex_numbers(max_magnitude=10.0), min_size=1,
                        max_size=4),
       draws=st.lists(st.tuples(st.integers(0, 3), st.floats(-2.0, 2.0),
                                st.floats(-2.0, 2.0), st.integers(1, 9)),
                      min_size=1, max_size=24),
       cluster=st.sampled_from([None, 1e-8]))
def test_weighted_cluster_means(centers, draws, cluster):
    # jitters of about the join radius chain some points and split others
    points = np.array([centers[c % len(centers)] + 1e-8 * complex(re, im)
                       for c, re, im, _ in draws])
    weights = np.array([w for *_, w in draws])
    members, offsets, means = linalg._clusters(points, cluster, weights)
    plain, plain_offsets, _ = linalg._clusters(points, cluster)
    groups = np.split(members, offsets[1:-1])
    assert sorted(g.tolist() for g in groups) == \
        sorted(g.tolist() for g in np.split(plain, plain_offsets[1:-1]))
    want = [np.average(points[g], weights=weights[g]) for g in groups]
    np.testing.assert_allclose(means, want, rtol=0,
                               atol=8 * EPS * np.max(np.abs(points)))
    keys = [(z.real, z.imag) for z in means]
    assert keys == sorted(keys)


def _weights(norm, n):
    # E_A's weights 1/(1 + s^2) for singular values spread up to norm:
    # past norm 1e4 their gaps fall below the absolute radius 1e-8
    s = norm * np.sort(np.random.default_rng(n).random(n))
    return (1.0 / (1.0 + s * s)).astype(np.complex128)


DEFAULT_CASES = {
    "weights_1e4": _weights(1e4, 40),
    "weights_1e6": _weights(1e6, 40),
    # gaps of 0.9e-8 and 1.1e-8 relative: by the default rule the first
    # pair joins, the second does not, and the absolute radius 2e-8
    # would join all, as E_A's rule, capped there, does
    "relative_edge": np.array([1.0, 1.0 + 0.9e-8, 1.0 + 2.0e-8]) + 0j,
    # the points 1e-20 apart sit under the floor 100 eps max|point|
    "floor": np.array([0.0, 1e-20, 1e-3, 1.0 + 1j, 1.0 + 1j]),
    "chain": np.array([1e6, 1e6 + 0.009, 1e6 + 0.018, 1e6 + 0.03, 3.0]) + 0j,
}


@pytest.mark.parametrize("case", sorted(DEFAULT_CASES))
def test_default_clusters_match_pairwise_reference(case):
    points = DEFAULT_CASES[case]
    members, offsets, _ = linalg._clusters(points)
    want = ref_cluster_points(points, ref_radii(points))
    assert [g.tolist() for g in np.split(members, offsets[1:-1])] == \
        [g.tolist() for g in want]


@pytest.mark.parametrize("case", sorted(DEFAULT_CASES))
def test_own_size_clusters_match_pairwise_reference(case):
    points = DEFAULT_CASES[case]
    members, offsets, _ = linalg._clusters(points, of="A")
    want = ref_cluster_points(points, ref_radii(points, of="A"))
    assert [g.tolist() for g in np.split(members, offsets[1:-1])] == \
        [g.tolist() for g in want]


def _normal(values, seed):
    rng = np.random.default_rng(seed)
    n = len(values)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return OperatorMatrix((q * np.asarray(values)) @ q.conj().T)


def _direct_sum(c, diag):
    n = 3 + len(diag)
    m = np.zeros((n, n), dtype=complex)
    m[:3, :3] = c * np.eye(3)
    m[3:, 3:] = np.diag(diag)
    return OperatorMatrix(m)


NORMAL_CASES = {
    "momentum_1d": generate(OperatorSpec("momentum_1d", dim=12, scale=3.0,
                                         seed=0)),
    "cI_plus_diag": _direct_sum(2.0 - 1j, [0.5, 2.0 - 1j, 3j, -1.0]),
    # equal real parts: H clusters whose K blocks need a solve
    "k_split": _normal([1 + 1j, 1 - 1j, 1 + 2j, 2.0, 2 + 0.5j, -1j], 3),
    "repeated": _normal([1j, 1j, 1j, 2.0, 2.0, -3 + 1j], 4),
    # H values chained by gaps under the clustering radius
    "chained": _normal([1.0, 1.0 + 6e-9, 1.0 + 1.2e-8, 1.0 + 1.8e-8, 4.0,
                        4.0 + 1j], 5),
    "random_normal": generate(OperatorSpec("random_normal", dim=10,
                                           scale=5.0, seed=6)),
}


@pytest.mark.parametrize("case", sorted(NORMAL_CASES))
def test_normal_eig_matches_per_cluster_reference(case):
    m = NORMAL_CASES[case]
    got = pvm_from_normal(m, Tolerances())
    want = ref_measure(ref_normal_eig(m))
    close = 100 * EPS * np.linalg.norm(m.array)
    # atoms are ordered by the real parts of their points, so two whose
    # real parts agree to rounding may come in either order
    match = np.argmin(np.abs(got.points[:, None] - want.points[None, :]),
                      axis=1)
    assert sorted(match.tolist()) == list(range(want.num_atoms))
    assert np.all(np.abs(want.points.real[match]
                         - got.points.real) <= close)
    assert np.all(np.diff(want.points.real[match]) >= -2 * close)
    assert got.ranks == tuple(want.ranks[j] for j in match)
    np.testing.assert_allclose(got.points, want.points[match], rtol=0,
                               atol=close)
    for k, j in enumerate(match):
        np.testing.assert_allclose(got.projection(k).array,
                                   want.projection(j).array, rtol=0,
                                   atol=1e-12)


def _local_form(d) -> np.ndarray:
    """The pair's r x r local form of B, zero-padded to n x n."""
    r = d._local.shape[0]
    local = np.zeros((d.dim, d.dim), dtype=np.complex128)
    local[:r, :r] = d._local
    return local


def _factors(t):
    d = decompose(t)
    e1 = _merged(d._weights, d._unitary, np.arange(t.dim + 1))
    return e1, _measure_in_frame(OperatorMatrix(_local_form(d)), d._unitary)


def _assert_same_product(got, want):
    np.testing.assert_array_equal(got.t_points, want.t_points)
    np.testing.assert_array_equal(got.w_points, want.w_points)
    assert got.ranks == want.ranks
    assert got.rectangle_residual == pytest.approx(
        want.rectangle_residual, rel=0, abs=64 * EPS * got.dim)
    for k in range(got.num_atoms):
        np.testing.assert_allclose(got.projection(k).array,
                                   want.projection(k).array, rtol=0,
                                   atol=1e-13)


@pytest.mark.parametrize("case", sorted(NORMAL_CASES))
def test_product_measure_matches_per_pair_reference(case):
    e1, e2 = _factors(NORMAL_CASES[case])
    _assert_same_product(product_measure(e1, e2), ref_product_measure(e1, e2))


def test_pushforward_matches_per_cluster_reference():
    # E_A of momentum_1d has rank-2 atoms, so product atoms of mixed rank
    # merge under the pushforward
    e1, e2 = _factors(NORMAL_CASES["momentum_1d"])
    prod = product_measure(e1, e2)
    got = pushforward(prod, lambda t, w: w / t)
    images = prod.w_points / prod.t_points
    ranks = np.array(prod.ranks, dtype=np.float64)
    clusters = ref_cluster_points(images, ref_radii(images))
    assert [got.basis(k).shape[1] for k in range(got.num_atoms)] == \
        [int(ranks[c].sum()) for c in clusters]
    for k, c in enumerate(clusters):
        point = (images[c] * ranks[c]).sum() / ranks[c].sum()
        assert got.points[k] == point
        np.testing.assert_array_equal(
            got.basis(k), np.hstack([prod.basis(int(i)) for i in c]))


def _tilted_pair(n, r1, r2, shift, log_delta, seed):
    """Two-atom factors sharing columns of one unitary, the second tilted."""
    rng = np.random.default_rng(seed)

    def unitary(spread):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(np.eye(n) + spread * g)[0]

    q = unitary(10.0)
    q2 = q if log_delta is None else q @ unitary(10.0 ** log_delta)
    cols = (np.arange(r2) + shift) % n
    rest = np.setdiff1d(np.arange(n), cols)
    e1 = SpectralMeasure(n, np.array([0.1, 0.2]), bases=(q[:, :r1], q[:, r1:]))
    e2 = SpectralMeasure(n, np.array([0.3, 0.4j]),
                         bases=(q2[:, cols], q2[:, rest]))
    return e1, e2


def _outcome(build, *args):
    try:
        return build(*args)
    except (DimensionMismatch, NotCommuting) as err:
        return type(err), str(err)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(n=st.integers(4, 9), r1=st.integers(1, 3), r2=st.integers(1, 3),
       shift=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       log_delta=st.none() | st.floats(-13.0, 0.0),
       rtol=st.sampled_from([None, 1e-2, 0.3]),
       scaled=st.sampled_from([None, "e1", "e2"]))
def test_batched_product_refuses_and_accepts_like_reference(
        n, r1, r2, shift, seed, log_delta, rtol, scaled):
    # mixed ranks, tilts that break commutation, relative tolerances
    # rel(n) = rtol loose enough to reach "no stable intersection", and a
    # scaled atom basis; both products read the one patched linalg.REL
    e1, e2 = _tilted_pair(n, r1, r2, shift, log_delta, seed)
    factors = {"e1": e1, "e2": e2}
    if scaled is not None:
        e = factors[scaled]
        bases = [e.basis(k) for k in range(e.num_atoms)]
        bases[1] = 2.5 * bases[1]  # refused at every tolerance drawn
        factors[scaled] = SpectralMeasure(n, e.points, bases=tuple(bases))
    with pytest.MonkeyPatch.context() as patch:
        if rtol is not None:
            patch.setattr(linalg, "REL", rtol / n)
        got = _outcome(product_measure, factors["e1"], factors["e2"])
        want = _outcome(ref_product_measure, factors["e1"], factors["e2"])
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same_product(got, want)


def _shuffled_diagonal(n):
    d = np.diag(generate(OperatorSpec("multiplication", dim=n, scale=100.0,
                                      seed=7)).array)
    return OperatorMatrix(np.diag(d[np.random.default_rng(7).permutation(n)]))


ALL_RANK_ONE = {
    "shuffled_diagonal": lambda: _shuffled_diagonal(256),
    "random_normal": lambda: generate(OperatorSpec("random_normal", dim=64,
                                                   scale=10.0, seed=7)),
}


@pytest.mark.parametrize("case", sorted(ALL_RANK_ONE))
def test_rank_one_atoms_need_one_jacobi_solve(case, monkeypatch):
    # with every atom of rank one, E_B's H solve is the only Jacobi solve
    # left after the one-sided solve of T: no K block, no pair solve
    t = ALL_RANK_ONE[case]()
    d = decompose(t)
    u, b_local = d._unitary, _local_form(d)
    e1 = _merged(d._weights, u, np.arange(t.dim + 1))
    calls = []

    def counted(kernel):
        def call(*args, **kwargs):
            calls.append(args[0].shape)
            return kernel(*args, **kwargs)
        return call

    monkeypatch.setattr(linalg, "_jacobi_hermitian",
                        counted(linalg._jacobi_hermitian))
    monkeypatch.setattr(product, "_jacobi_one_sided",
                        counted(product._jacobi_one_sided))
    e2 = _measure_in_frame(OperatorMatrix(b_local), u)
    prod = product_measure(e1, e2)
    assert set(e1.ranks) == set(e2.ranks) == set(prod.ranks) == {1}
    assert calls == [(t.dim, t.dim)]


def test_measure_in_frame_peak_holds_no_per_atom_copy():
    # the peak sits in the eigensystem's sort: the input's copy, H's
    # vectors, and their sorted, phased and frozen copies (about 6.2 n x n
    # complex arrays); the bases are rotated back in one product, with no
    # per-atom split or copy on top (7.2 n x n arrays before)
    import tracemalloc
    n = 256
    d = decompose(_shuffled_diagonal(n))
    frame, b_local = d._unitary, _local_form(d)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        e2 = _measure_in_frame(OperatorMatrix(b_local), frame)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert e2.num_atoms == n
    assert peak <= 6.5 * 16 * n * n + 64 * 16 * n


@pytest.mark.parametrize("kind", ["shuffled_diagonal", "random_normal"])
def test_route_peak_holds_no_extra_square_copy(kind):
    # the whole route's tracemalloc peak above its input sits in the
    # reconstruction check, at 8.04 n x n complex arrays at n = 256 on
    # both inputs: the sum's weighted basis, the basis's adjoint and
    # their product over five held arrays, U (E_A's basis too), B's raw
    # local form and the bases of E_B, the product and E_T.  E_B's solve
    # peaks at 7.2.  One more n x n copy at the peak reads 9.04; A and B
    # formed eagerly read 10.16
    import tracemalloc
    n = 256
    t = (_shuffled_diagonal(n) if kind == "shuffled_diagonal" else
         generate(OperatorSpec("random_normal", dim=n, scale=10.0, seed=7)))
    linalg._round_robin_rounds(n)  # the pairing cache is filled once
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = pipeline.spectral_theorem(t)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert res.report.all_passed
    assert peak <= 8.5 * 16 * n * n + 64 * 16 * n


def test_route_forms_a_and_b_on_first_read(monkeypatch):
    # the route's pair holds U, the weights and B's local form; A and B
    # are formed once, on first read, from exactly those arrays
    formed = []
    init = OperatorMatrix.__post_init__

    def counted(self):
        formed.append(self.array.shape)
        init(self)

    t = generate(OperatorSpec("random_normal", dim=12, scale=10.0, seed=5))
    d = decompose(t)
    w, u, local = d._weights, d._unitary, d._local
    res = pipeline.spectral_theorem(t)
    pair = res.decomposition
    assert not {"a", "b"} & (set(vars(pair)) | set(vars(d)))
    r = local.shape[0]  # range modes
    ur = u[:, :r]
    monkeypatch.setattr(OperatorMatrix, "__post_init__", counted)
    a = pair.a
    assert pair.a is a and formed == [(12, 12)]
    np.testing.assert_array_equal(a.array, (u * w) @ u.conj().T)
    np.testing.assert_array_equal(pair.b.array, ur @ local @ ur.conj().T)
    assert pair.b is pair.b and len(formed) == 2
    assert not local.flags.writeable


def test_atom_store_keeps_one_stacked_basis():
    # basis(k) is a read-only view of the one stacked array
    e = measures.pvm_from_normal(NORMAL_CASES["momentum_1d"])
    stacked = e.stacked_basis()
    assert not stacked.flags.writeable
    for k in range(e.num_atoms):
        assert np.shares_memory(e.basis(k), stacked)
    assert e.basis(-1).shape[1] == e.ranks[-1]
    with pytest.raises(IndexError):
        e.basis(e.num_atoms)
