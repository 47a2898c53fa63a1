import numpy as np
import pytest

from spectral_forge.errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteValue,
    NotHermitian,
    NotNormal,
)
from spectral_forge.linalg import (
    EigenSystem,
    OperatorMatrix,
    Tolerances,
    cluster_points,
    frobenius,
    hermitian_eig,
    is_hermitian,
    is_normal,
    normal_eig,
    op_norm_2,
    rel,
)
from spectral_forge.measures import SpectralMeasure


def random_hermitian(rng, n, scale=1.0):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return OperatorMatrix(scale * (g + g.conj().T) / 2)


def test_operator_matrix_validation():
    with pytest.raises(DimensionMismatch):
        OperatorMatrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        OperatorMatrix(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        OperatorMatrix(np.zeros(4))
    with pytest.raises(NonFiniteValue):
        OperatorMatrix(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(NonFiniteValue):
        OperatorMatrix(np.array([[np.nan * 1j, 0], [0, 1]]))


def test_eigen_system_needs_one_value_per_dimension():
    u = OperatorMatrix(np.eye(3))
    for values in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]):
        with pytest.raises(DimensionMismatch, match="eigenvalue count"):
            EigenSystem(u, np.array(values))
    assert EigenSystem(u, np.array([1.0, 2.0, 3.0])).dim == 3


def test_operator_matrix_is_frozen():
    m = OperatorMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0


def test_operator_matrix_copies_input():
    src = np.eye(2, dtype=np.complex128)
    m = OperatorMatrix(src)
    src[0, 0] = 7.0
    assert m.array[0, 0] == 1.0


def test_operator_matrix_accepts_any_memory_order():
    # a transpose is a Fortran-ordered view, and so is the adjoint
    a = np.array([[1, 2j], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(OperatorMatrix(a.conj().T).array,
                                  [[1, 3], [-2j, 4]])
    np.testing.assert_array_equal(OperatorMatrix(np.asfortranarray(a)).array, a)


def test_hermitian_and_normal_predicates():
    x = OperatorMatrix(np.array([[1, 1j], [-1j, 2]]))
    assert is_hermitian(x)
    assert is_normal(x)
    rot = OperatorMatrix(np.array([[0, -1], [1, 0]], dtype=complex))
    assert not is_hermitian(rot)
    assert is_normal(rot)
    jordan = OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex))
    assert not is_normal(jordan)


def test_tolerances_defaults_and_validation(monkeypatch):
    from spectral_forge import linalg
    assert linalg.rel(10) == pytest.approx(1e-9)
    tol = Tolerances()
    assert tol.cluster_radius(4.0) == pytest.approx(5e-8)
    custom = Tolerances(cluster=1e-3)
    # the default rule's cap whatever the radius: cluster is read by
    # the measures of T alone
    assert custom.cluster_radius(100.0) == pytest.approx(1e-8 * 101)
    # rel is read at call time: one patched constant moves every bound
    monkeypatch.setattr(linalg, "REL", 1e-7)
    assert linalg.rel(10) == pytest.approx(1e-6)
    # one check of a radius (linalg._radius), wherever a radius enters
    points = np.array([0.0, 1e-4, 1.0])
    for bad in (0.0, -1e-10, float("nan"), float("inf"), True, np.True_,
                "1e-3", 1e-3 + 0j, [1e-3], np.array([1e-3])):
        with pytest.raises(ValueError, match="strictly positive"):
            Tolerances(cluster=bad)
        with pytest.raises(ValueError, match="strictly positive"):
            SpectralMeasure(2, [1.0], bases=[np.eye(2)], cluster=bad)
        with pytest.raises(ValueError, match="strictly positive"):
            cluster_points(points, bad)
    # an int past the double range is refused as any other bad radius
    with pytest.raises(ValueError, match="strictly positive"):
        Tolerances(cluster=10**400)
    # below the public edge the radius is a Python float
    radius = Tolerances(cluster=np.float32(1e-3)).cluster
    assert type(radius) is float and radius == float(np.float32(1e-3))


def test_hermitian_eig_hand_values_real_symmetric():
    # eigenpairs of the flip: (-1, (1,-1)/sqrt2), (+1, (1,1)/sqrt2)
    x = OperatorMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
    es = hermitian_eig(x)
    np.testing.assert_allclose(es.eigenvalues, [-1, 1], atol=1e-14)
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(es.unitary.array[:, 0], [r, -r], atol=1e-14)
    np.testing.assert_allclose(es.unitary.array[:, 1], [r, r], atol=1e-14)


def test_hermitian_eig_hand_values_complex():
    # det(M - t) = (1-t)^2 - 1, eigenvalues 0 and 2
    m = OperatorMatrix(np.array([[1, 1j], [-1j, 1]]))
    es = hermitian_eig(m)
    np.testing.assert_allclose(es.eigenvalues, [0, 2], atol=1e-14)
    u = es.unitary.array
    for j, lam in enumerate([0.0, 2.0]):
        np.testing.assert_allclose(m.array @ u[:, j], lam * u[:, j], atol=1e-14)
    # phase fix: largest component real positive
    assert u[0, 0].imag == pytest.approx(0.0, abs=1e-15)
    assert u[0, 0].real > 0


def test_hermitian_eig_repeated_eigenvalues():
    m = OperatorMatrix(np.diag([3.0, 3.0, 1.0]).astype(complex))
    es = hermitian_eig(m)
    np.testing.assert_allclose(es.eigenvalues, [1, 3, 3], atol=1e-14)


@pytest.mark.parametrize("n", [2, 5, 16, 40])
def test_hermitian_eig_against_numpy(n):
    rng = np.random.default_rng(n)
    m = random_hermitian(rng, n, scale=3.0)
    es = hermitian_eig(m)
    oracle = np.linalg.eigvalsh(m.array)
    np.testing.assert_allclose(es.eigenvalues.real, oracle,
                               atol=1e-11 * (1 + np.abs(oracle).max()))
    u = es.unitary.array
    assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-12 * n
    recon = u @ np.diag(es.eigenvalues) @ u.conj().T
    assert np.linalg.norm(recon - m.array) < 1e-11 * n


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex)))


def test_jacobi_budget_exhaustion(monkeypatch):
    from spectral_forge import linalg
    monkeypatch.setattr(linalg, "JACOBI_BUDGET_FACTOR", 0)
    m = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(NoConvergence,
                       match="sweep budget of 0 rotations exhausted"):
        linalg._jacobi_hermitian(m)


def test_jacobi_target_below_rounding_floor_raises(monkeypatch):
    # the mass left at the relative stopping point is about eps ||M||,
    # far above an absolute target of 1e-20
    from spectral_forge import linalg
    monkeypatch.setattr(linalg, "ATOL", 1e-20)
    m = random_hermitian(np.random.default_rng(3), 8)
    with pytest.raises(NoConvergence,
                       match="reached the relative rounding floor"):
        hermitian_eig(m)


def test_jacobi_stops_at_relative_rounding_floor(monkeypatch):
    # the off-diagonal mass is measured once per sweep, plus once at exit
    from spectral_forge import linalg
    sweeps = []
    measure = linalg._off_diagonal_norm

    def counted(w):
        sweeps.append(1)
        return measure(w)

    monkeypatch.setattr(linalg, "_off_diagonal_norm", counted)
    rng = np.random.default_rng(64)
    m = random_hermitian(rng, 64)
    es = hermitian_eig(m)
    # stopping only when a sweep stalls takes about 98 sweeps here, and
    # a skip threshold falling linearly with the off-diagonal mass 17
    assert len(sweeps) <= 12
    oracle = np.linalg.eigvalsh(m.array)
    np.testing.assert_allclose(es.eigenvalues.real, oracle,
                               atol=1e-11 * (1 + np.abs(oracle).max()))


def test_hermitian_eig_graded_relative_accuracy():
    # graded 2x2 blocks: the small eigenvalue det / lambda_big sits far
    # below eps * ||M||, so only a relative stopping test resolves it;
    # the last block's coupling is below any absolute test's floor
    blocks = [
        (1.0, 1e-7, 1e-12),
        (2.0, 1e-9, 1e-16),
        (1e-10, 1e-17, 1e-14),
    ]
    n = 2 * len(blocks)
    dense = np.zeros((n, n))
    want = []
    for i, (a, b, d) in enumerate(blocks):
        dense[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[a, b], [b, d]]
        big = (a + d) / 2 + np.hypot((a - d) / 2, b)
        want += [(a * d - b * b) / big, big]
    perm = np.random.default_rng(2).permutation(n)
    es = hermitian_eig(OperatorMatrix(dense[np.ix_(perm, perm)]))
    want = np.sort(want)
    rel = np.abs(es.eigenvalues.real - want) / want
    assert rel.max() <= 8 * np.finfo(np.float64).eps


def test_normal_eig_diagonal():
    es = normal_eig(OperatorMatrix(np.diag([2j, -3.0])))
    # lexicographic by (Re, Im)
    np.testing.assert_allclose(es.eigenvalues, [-3.0, 2j], atol=1e-14)


def test_normal_eig_rotation_matrix():
    # zero Hermitian part forces the skew stage to do the splitting
    rot = OperatorMatrix(np.array([[0, -1], [1, 0]], dtype=complex))
    es = normal_eig(rot)
    np.testing.assert_allclose(es.eigenvalues, [-1j, 1j], atol=1e-14)
    u = es.unitary.array
    recon = u @ np.diag(es.eigenvalues) @ u.conj().T
    assert np.linalg.norm(recon - rot.array) < 1e-14


def test_normal_eig_recovers_planted_spectrum():
    rng = np.random.default_rng(7)
    n = 12
    planted = np.sort_complex(rng.normal(size=n) + 1j * rng.normal(size=n))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(g)
    m = OperatorMatrix(q @ np.diag(planted) @ q.conj().T)
    es = normal_eig(m)
    got = np.array(sorted(es.eigenvalues, key=lambda z: (z.real, z.imag)))
    want = np.array(sorted(planted, key=lambda z: (z.real, z.imag)))
    np.testing.assert_allclose(got, want, atol=1e-10)
    u = es.unitary.array
    recon = u @ np.diag(es.eigenvalues) @ u.conj().T
    assert np.linalg.norm(recon - m.array) < 1e-10


def test_normal_eig_hermitian_input_has_real_spectrum():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 9)
    es = normal_eig(m)
    assert np.max(np.abs(es.eigenvalues.imag)) <= 1e-10


def test_normal_eig_rejects_non_normal():
    with pytest.raises(NotNormal):
        normal_eig(OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex)))


def test_normal_eig_clustered_hermitian_part():
    # two eigenvalues share Re = 1 so the second stage must separate them
    m = OperatorMatrix(np.diag([1 + 2j, 1 - 2j, 4.0]))
    rng = np.random.default_rng(11)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    m = OperatorMatrix(q @ m.array @ q.conj().T)
    es = normal_eig(m)
    got = sorted(es.eigenvalues, key=lambda z: z.imag)
    np.testing.assert_allclose(got, [1 - 2j, 4.0, 1 + 2j], atol=1e-10)


def test_normal_eig_keeps_a_chained_cluster_of_a_hermitian_input():
    # seven eigenvalues 1e-9 to 9e-9 apart chain into one cluster of H;
    # the K block there is rounding, and rotating on it once replaced
    # them by random averages, 9e-9 off
    rng = np.random.default_rng(7)
    g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    q, _ = np.linalg.qr(g)
    h = np.concatenate([2.5e-7 + np.cumsum(np.linspace(1e-9, 9e-9, 7)),
                        np.linspace(0.1, 0.5, 5)])
    es = normal_eig(OperatorMatrix((q * h) @ q.conj().T))
    np.testing.assert_allclose(np.sort(es.eigenvalues.real), np.sort(h),
                               rtol=0, atol=1e-15)


def test_cluster_points_groups_and_order():
    pts = np.array([5.0, 0.0, 5.0 + 2e-9, 1e-9], dtype=complex)
    groups = cluster_points(pts, 1e-8)
    assert [sorted(g.tolist()) for g in groups] == [[1, 3], [0, 2]]


def test_cluster_points_transitive_chain():
    pts = np.array([0.0, 1.0, 2.0], dtype=complex)
    groups = cluster_points(pts, 1.0)
    assert len(groups) == 1
    assert sorted(groups[0].tolist()) == [0, 1, 2]


def test_cluster_points_all_separate():
    pts = np.array([0.0, 1.0, 2.5], dtype=complex)
    groups = cluster_points(pts, 0.4)
    assert len(groups) == 3


def test_op_norm_2_hand_values():
    assert op_norm_2(OperatorMatrix(np.diag([3.0, -4.0]))) == pytest.approx(4.0)
    shift = OperatorMatrix(np.array([[0, 2], [0, 0]], dtype=complex))
    assert op_norm_2(shift) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [3, 10, 24])
def test_op_norm_2_against_numpy(n):
    rng = np.random.default_rng(100 + n)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = OperatorMatrix(g)
    oracle = np.linalg.norm(g, 2)
    assert op_norm_2(m) == pytest.approx(oracle, rel=1e-9)


def test_frobenius_matches_numpy():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert frobenius(OperatorMatrix(g)) == pytest.approx(np.linalg.norm(g))


def test_one_sided_budget_exhaustion(monkeypatch):
    from spectral_forge import linalg
    monkeypatch.setattr(linalg, "JACOBI_BUDGET_FACTOR", 0)
    m = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(NoConvergence,
                       match="sweep budget of 0 rotations exhausted"):
        linalg._jacobi_one_sided(m)


def test_one_sided_graded_relative_accuracy():
    # 2x2 blocks at scales 1 down to 1e-12, mixed by a unitary on the
    # left and permuted on the right: numpy's svd of the whole matrix is
    # accurate only to eps times the largest singular value, but block
    # by block, where each factor is well conditioned, it is accurate
    # relative to each singular value
    from spectral_forge.linalg import _jacobi_one_sided
    rng = np.random.default_rng(5)
    scales = [1.0, 1e-4, 1e-8, 1e-12]
    n = 2 * len(scales)
    x = np.zeros((n, n), dtype=complex)
    want = []
    for i, s in enumerate(scales):
        c = np.eye(2) + 0.5 * (rng.normal(size=(2, 2))
                               + 1j * rng.normal(size=(2, 2)))
        x[2 * i:2 * i + 2, 2 * i:2 * i + 2] = s * c
        want += list(s * np.linalg.svd(c, compute_uv=False))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    g = (q @ x)[:, rng.permutation(n)]
    sigma, cols = _jacobi_one_sided(g)
    want = np.sort(want)
    rel = np.abs(np.sort(sigma) - want) / want
    assert rel.max() <= 8 * n * np.finfo(np.float64).eps
    whole = np.sort(np.linalg.svd(g, compute_uv=False))
    assert (np.abs(whole - want) / want).max() > 1e3 * rel.max()
    # the rotated columns, normalized, are orthonormal to the stop
    # test's level, graded as they are
    u = cols / sigma
    assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-13


def _plain_defect_ratio(a: np.ndarray) -> float:
    """``||A*A - AA*||_F / (rel(n) ||A||_F^2)`` from whole products."""
    ah = a.conj().T
    fro = np.linalg.norm(a)
    return np.linalg.norm(ah @ a - a @ ah) / (rel(a.shape[0]) * fro * fro)


@pytest.mark.parametrize("target", [0.5, 0.9, 1.1, 2.0])
def test_blocked_normality_gives_the_plain_verdict(target):
    # the defect summed over 19 row blocks gives the plain formula's
    # verdict at n = 384; a diagonal plus s E has a defect nearly linear
    # in s, so two secant steps put it at target x the bound.  At 0.9 and
    # 1.1 a block sum that counted the part right of each diagonal block
    # once, not twice, would misjudge it
    n = 384
    rng = np.random.default_rng(11)
    diag = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
    bump = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = 1e-12
    for _ in range(2):
        s *= target / _plain_defect_ratio(diag + s * bump)
    a = diag + s * bump
    assert abs(_plain_defect_ratio(a) / target - 1.0) < 0.05
    assert is_normal(OperatorMatrix(a)) == (target < 1.0)


@pytest.mark.parametrize("m", [
    [[2, 1j, 0], [-1j, 3, 1], [0, 1, -1]],
    [[0, -1, 0], [1, 0, 0], [0, 0, 2j]],
    [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
], ids=["hermitian", "normal", "non-normal"])
def test_structure_tests_are_scale_invariant(m):
    base = OperatorMatrix(np.array(m, dtype=complex))
    verdicts = {(is_hermitian(OperatorMatrix(s * base.array)),
                 is_normal(OperatorMatrix(s * base.array)))
                for s in [*10.0 ** np.arange(-20, 21), 1e-300, 1e-170, 1e170, 1e300]}
    assert verdicts == {(is_hermitian(base), is_normal(base))}


def test_tiny_non_hermitian_matrix_is_not_hermitian():
    # an absolute floor in the Hermitian test once passed this matrix,
    # and op_norm_2 then read it off the wrong eigenvalues as 5e-14
    m = OperatorMatrix(np.array([[0, 1e-13], [0, 0]], dtype=complex))
    with pytest.raises(NotHermitian):
        hermitian_eig(m)
    assert op_norm_2(m) == 1e-13


def _direct_sum(*blocks) -> np.ndarray:
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


def test_diagonal_blocks_are_the_finest_contiguous_cut():
    from spectral_forge.linalg import _diagonal_blocks
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(4, 4)) + 0j
    a = _direct_sum(dense, np.eye(1), np.zeros((2, 2)), dense[:3, :3])
    np.testing.assert_array_equal(_diagonal_blocks(a), [0, 4, 5, 6, 7, 10])
    # one entry above the diagonal, or below it, joins what it spans
    a[1, 5] = 1e-300
    np.testing.assert_array_equal(_diagonal_blocks(a), [0, 6, 7, 10])
    a[1, 5] = 0.0
    a[9, 6] = -0.5
    np.testing.assert_array_equal(_diagonal_blocks(a), [0, 4, 5, 6, 10])
    assert _diagonal_blocks(dense).tolist() == [0, 4]
    assert _diagonal_blocks(np.zeros((3, 3))).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("target", [0.9, 1.1])
def test_normality_summed_over_blocks_gives_the_plain_verdict(target):
    # a direct sum of diagonals plus s E: the defect, summed over its
    # blocks of 1, 3 and 40, gives the whole matrix's verdict at 0.9 and
    # 1.1 times the bound
    rng = np.random.default_rng(12)

    def block(n, s):
        d = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
        return d + s * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))

    parts = [block(3, 0.0), block(40, 1.0), block(1, 0.0), block(3, 1.0)]
    bumps = [p - np.diag(p.diagonal()) for p in parts]
    diags = [np.diag(p.diagonal()) for p in parts]
    s = 1e-12
    for _ in range(2):
        s *= target / _plain_defect_ratio(_direct_sum(
            *[d + s * b for d, b in zip(diags, bumps)]))
    a = _direct_sum(*[d + s * b for d, b in zip(diags, bumps)])
    assert abs(_plain_defect_ratio(a) / target - 1.0) < 0.05
    assert is_normal(OperatorMatrix(a)) == (target < 1.0)


def test_a_direct_sum_with_one_non_normal_block_is_not_normal():
    from spectral_forge.gallery import OperatorSpec, generate
    normal = generate(OperatorSpec("random_normal", dim=6, seed=3)).array
    jordan = generate(OperatorSpec("jordan_block", dim=3)).array
    parts = [normal, np.diag([2.0, -1j]), 1e-3 * jordan, np.eye(2)]
    assert not is_normal(OperatorMatrix(_direct_sum(*parts)))
    with pytest.raises(NotNormal):
        normal_eig(OperatorMatrix(_direct_sum(*parts)))
    del parts[2]
    assert is_normal(OperatorMatrix(_direct_sum(*parts)))


def _assert_matches_eig(a: np.ndarray):
    es = normal_eig(OperatorMatrix(a))
    n = len(a)
    want = np.linalg.eigvals(a)
    got = es.eigenvalues
    # every eigenvalue of numpy's has its own match, in the package's order
    match = np.argmin(np.abs(got[:, None] - want[None, :]), axis=1)
    assert sorted(match.tolist()) == list(range(n))
    scale = np.linalg.norm(a)
    assert np.abs(got - want[match]).max() <= 1e-13 * scale
    u = es.unitary.array
    assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-13 * n
    assert np.linalg.norm((u * got) @ u.conj().T - a) <= 1e-13 * scale


def test_direct_sum_is_solved_block_by_block():
    # blocks of 1, 3, 4 and 4, each solved alone, solve as the whole
    # would, against numpy's eig
    from spectral_forge.gallery import OperatorSpec, generate
    parts = [generate(OperatorSpec("random_normal", dim=3, seed=1)).array,
             np.array([[2.5 - 1j]]),
             generate(OperatorSpec("random_unitary", dim=4, seed=2)).array,
             generate(OperatorSpec("momentum_1d", dim=4, scale=3.0)).array]
    _assert_matches_eig(_direct_sum(*parts))


def test_interleaved_blocks_are_solved_as_one_coarser_block():
    # rows 0, 2, 4 against rows 1, 3: no contiguous cut separates them,
    # so they are one block of 5, which solves as numpy's eig does
    from spectral_forge.gallery import OperatorSpec, generate
    from spectral_forge.linalg import _diagonal_blocks
    a = _direct_sum(generate(OperatorSpec("random_normal", dim=3,
                                          seed=4)).array,
                    generate(OperatorSpec("random_unitary", dim=2,
                                          seed=4)).array)
    order = [0, 3, 1, 4, 2]
    a = a[np.ix_(order, order)]
    assert _diagonal_blocks(a).tolist() == [0, 5]
    _assert_matches_eig(a)
