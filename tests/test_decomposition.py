import numpy as np
import pytest

from spectral_forge.decomposition import (
    Decomposition,
    decompose,
    norm_bounds,
    verify,
)
from spectral_forge.errors import DimensionMismatch, NotNormal, ScaleLimit
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import OperatorMatrix, is_hermitian, op_norm_2


def test_scalar_hand_value():
    # A = 1/(1+|2i|^2) = 1/5, B = 2i/5
    t = OperatorMatrix(np.array([[2j]]))
    d = decompose(t)
    assert d.a.array[0, 0] == pytest.approx(0.2)
    assert d.b.array[0, 0] == pytest.approx(0.4j)


def test_zero_operator():
    t = OperatorMatrix(np.zeros((3, 3)))
    d = decompose(t)
    np.testing.assert_allclose(d.a.array, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(d.b.array, np.zeros((3, 3)), atol=1e-15)


def test_unitary_input():
    # for unitary T, T*T = I so A = I/2 and B = T/2
    rot = OperatorMatrix(np.array([[0, -1], [1, 0]], dtype=complex))
    d = decompose(rot)
    np.testing.assert_allclose(d.a.array, np.eye(2) / 2, atol=1e-14)
    np.testing.assert_allclose(d.b.array, rot.array / 2, atol=1e-14)


def test_rejects_non_normal():
    jordan = OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NotNormal):
        decompose(jordan)


def test_verify_passes_on_random_normal():
    for seed in (1, 2, 3):
        t = generate(OperatorSpec("random_normal", dim=8, scale=2.0, seed=seed))
        d = decompose(t)
        report = verify(t, d)
        assert report.all_passed, report.residuals


def test_verify_reports_expected_checks():
    t = generate(OperatorSpec("random_normal", dim=5, scale=1.0, seed=9))
    report = verify(t, decompose(t))
    expected = {"injectivity_margin", "reconstruction", "commutator",
                "claim_product", "adjoint_identity", "hermitian_defect_a",
                "normality_defect_b"}
    assert expected <= set(report.residuals)
    # non-Hermitian input carries no Hermitian check on B
    assert "hermitian_defect_b" not in report.residuals


def test_hermitian_input_gives_hermitian_b():
    t = generate(OperatorSpec("random_hermitian", dim=6, scale=3.0, seed=4))
    d = decompose(t)
    assert is_hermitian(d.b)
    report = verify(t, d)
    assert report.passed["hermitian_defect_b"]


def test_tampered_b_caught_by_reconstruction_not_commutator():
    # adding eps*I to B keeps [A, B] = 0, so reconstruction must be the
    # check that catches the corruption
    t = generate(OperatorSpec("random_normal", dim=6, scale=1.0, seed=17))
    d = decompose(t)
    bad = Decomposition(d.a, OperatorMatrix(d.b.array + 1e-3 * np.eye(6)),
                        d.source_norm)
    report = verify(t, bad)
    assert report.passed["commutator"]
    assert not report.passed["reconstruction"]
    assert not report.all_passed


def test_norm_bounds_hand_values():
    # T = [[1]]: A = B = 1/2
    a_norm, b_norm = norm_bounds(decompose(OperatorMatrix(np.array([[1.0]]))))
    assert a_norm == pytest.approx(0.5)
    assert b_norm == pytest.approx(0.5)


def test_norm_bounds_large_scale():
    t = OperatorMatrix(1e6 * np.eye(2))
    a_norm, b_norm = norm_bounds(decompose(t))
    assert a_norm == pytest.approx(1e-12, rel=1e-6)
    assert b_norm == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("s", [1.0, 1e2, 1e4, 1e6])
def test_uniform_bounds_under_scaling(s):
    # the pair stays bounded however large s*T grows
    t = generate(OperatorSpec("random_normal", dim=6, scale=1.0, seed=23))
    d = decompose(OperatorMatrix(s * t.array))
    a_norm, b_norm = norm_bounds(d)
    assert a_norm <= 1.0 + 1e-9
    assert b_norm <= 0.5 + 1e-9


def test_a_spectrum_in_unit_interval():
    from spectral_forge.linalg import hermitian_eig
    t = generate(OperatorSpec("random_normal", dim=10, scale=5.0, seed=31))
    d = decompose(t)
    vals = hermitian_eig(d.a).eigenvalues.real
    assert vals.min() > 0.0
    assert vals.max() <= 1.0 + 1e-12


def test_product_identities_hold():
    t = generate(OperatorSpec("random_normal", dim=7, scale=2.0, seed=41))
    d = decompose(t)
    m = np.eye(7) + t.array.conj().T @ t.array
    # A^-1 B = T read as (I + T*T) B = T
    assert np.linalg.norm(m @ d.b.array - t.array) < 1e-12 * np.linalg.norm(m)
    # A T = B and B* = T* A
    assert np.linalg.norm(d.a.array @ t.array - d.b.array) < 1e-13
    assert np.linalg.norm(d.b.array.conj().T
                          - t.array.conj().T @ d.a.array) < 1e-13


def test_decomposition_commutes():
    t = generate(OperatorSpec("random_normal", dim=9, scale=0.5, seed=55))
    d = decompose(t)
    comm = d.a.array @ d.b.array - d.b.array @ d.a.array
    assert np.linalg.norm(comm) < 1e-13


@pytest.mark.parametrize("n, norm", [(3, 4.64e4), (8, 1e4), (12, 1e4),
                                     (32, 1e4), (12, 1e6)])
def test_pair_commutes_to_rounding_on_a_spectrum_with_0(n, norm):
    # V* T V holds rounding of order eps ||T|| next to the null vectors;
    # formed as T A, B kept it unweighted, ||[A, B]|| passed the bound
    # rel ||A||_F ||B||_F + atol from ||T|| = 1e4 and (I + T*T) B - T
    # grew as eps ||T||^3
    t = generate(OperatorSpec("momentum_1d", dim=n, scale=norm))
    d = decompose(t)
    report = verify(t, d)
    assert report.all_passed, report.residuals
    assert report.residuals["commutator"] <= 100 * np.finfo(float).eps


def test_verify_dimension_mismatch():
    t2 = OperatorMatrix(np.eye(2))
    d3 = decompose(OperatorMatrix(np.eye(3)))
    with pytest.raises(DimensionMismatch):
        verify(t2, d3)


def test_source_norm_comes_from_the_pair_solve(monkeypatch):
    # the one-sided solve that gives A and B also gives ||T||_2
    from spectral_forge import decomposition

    def refuse(*args, **kwargs):
        raise AssertionError("decompose ran a separate norm solve")

    monkeypatch.setattr(decomposition, "op_norm_2", refuse)
    assert decompose(OperatorMatrix(np.diag([2.0, 1.0]))).source_norm == 2.0
    for seed in (1, 2, 3):
        t = generate(OperatorSpec("random_normal", dim=12, scale=40.0,
                                  seed=seed))
        oracle = np.linalg.norm(t.array, 2)
        assert abs(decompose(t).source_norm - oracle) <= 1e-13 * oracle


def test_verify_norm_comes_from_its_own_eigenframe(monkeypatch):
    # the margin bound uses ||T||_2 solved in the frame of verify's own
    # eigensolve of A: op_norm_2 of T F, whose Gram F* T*T F is diagonal
    # to rounding, never of the cold T, and never the stored source_norm
    from spectral_forge import decomposition
    t = generate(OperatorSpec("random_normal", dim=16, scale=30.0, seed=9))
    d = decompose(t)
    cold = op_norm_2(t)
    seen = []

    def recorded(m):
        seen.append(m.array)
        return op_norm_2(m)

    monkeypatch.setattr(decomposition, "op_norm_2", recorded)
    report = verify(t, d)
    tampered = verify(t, Decomposition(d.a, d.b, 1e-3))
    assert len(seen) == 2
    for m in seen:
        gram = m.conj().T @ m
        off = gram - np.diag(gram.diagonal())
        assert np.linalg.norm(off) <= 1e-12 * np.linalg.norm(gram)
    assert report.all_passed, report.residuals
    assert tampered.residuals == report.residuals
    assert tampered.tolerances == report.tolerances
    rel = 1e-10 * t.dim
    assert report.tolerances["injectivity_margin"] == pytest.approx(
        1.0 / (1.0 + cold * cold) - rel, rel=1e-12)


@pytest.mark.parametrize("change", ["as_written", "negative", "non_hermitian"])
def test_verify_solves_a_with_the_one_sided_kernel_alone(change, monkeypatch):
    # A's Hermitian part A_h, shifted by 1 + ||A_h||_F to be positive
    # definite, is solved one-sided: the two-sided kernel never runs, and
    # the margin is A_h's smallest eigenvalue
    from spectral_forge import linalg

    def refuse(*args, **kwargs):
        raise AssertionError("verify ran the two-sided kernel")

    t = generate(OperatorSpec("random_normal", dim=16, scale=30.0, seed=4))
    d = decompose(t)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    v /= np.linalg.norm(v)
    a = d.a.array + {"as_written": 0.0,
                     "negative": -2.0 * np.outer(v, v.conj()),
                     "non_hermitian": 1e-3 * np.outer(v, v)}[change]
    monkeypatch.setattr(linalg, "_jacobi_hermitian", refuse)
    report = verify(t, Decomposition(OperatorMatrix(a), d.b, d.source_norm))
    oracle = np.linalg.eigvalsh((a + a.conj().T) / 2.0).min()
    assert abs(report.residuals["injectivity_margin"] - oracle) <= 1e-12
    if change != "non_hermitian":
        assert report.passed["injectivity_margin"] == (change == "as_written")


@pytest.mark.parametrize("part", ["t", "a", "b"])
def test_verify_refuses_entries_past_2_128(part):
    # the products verify forms would overflow: ScaleLimit before any of
    # them, and no numpy warning
    import warnings
    t = generate(OperatorSpec("random_normal", dim=6, scale=3.0, seed=2))
    d = decompose(t)
    arrays = {"t": t.array, "a": d.a.array, "b": d.b.array}
    arrays[part] = arrays[part] * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScaleLimit, match="passes 2\\^128"):
            verify(OperatorMatrix(arrays["t"]),
                   Decomposition(OperatorMatrix(arrays["a"]),
                                 OperatorMatrix(arrays["b"]), 1.0))


def test_verify_fails_a_at_1e38_without_warnings():
    import warnings
    t = generate(OperatorSpec("random_normal", dim=6, scale=3.0, seed=2))
    d = decompose(t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify(t, Decomposition(OperatorMatrix(1e38 * d.a.array),
                                         d.b, d.source_norm))
    assert not report.all_passed
    assert "claim_product" in report.failed


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-300])
def test_verify_residuals_keep_their_size_at_small_scales(scale):
    # with B = 0 the reconstruction residual ||(I + T*T) B - T||_F is
    # ||T||_F itself; its squares underflow at 1e-300, where a norm taken
    # without scaling read 0
    from spectral_forge.linalg import frobenius
    n = 24
    t = generate(OperatorSpec("random_normal", dim=n, scale=scale, seed=7))
    d = decompose(t)
    report = verify(t, Decomposition(d.a, OperatorMatrix(np.zeros((n, n))),
                                      d.source_norm))
    fro = frobenius(t)
    assert fro > 0.0
    assert report.residuals["reconstruction"] == pytest.approx(
        fro, rel=4 * n * np.finfo(float).eps, abs=0.0)


@pytest.mark.parametrize("n", [32, 96])
@pytest.mark.parametrize("kind", ["momentum_1d", "laplacian_1d"])
def test_pair_weights_are_relative_accurate_at_every_norm(kind, n):
    # the weights 1/(1 + s^2) of A against the closed-form spectrum; a
    # solve of the formed I + T*T loses eps ||T||^2 of their relative
    # accuracy, 1e-4 at ||T|| = 1e6
    eps = np.finfo(np.float64).eps
    k = np.arange(n)
    for norm in (1e2, 1e4, 1e5, 1e6):
        if kind == "momentum_1d":
            # eigenvalues -norm sin(2 pi k / n), 0 among them
            scale = norm
            z = scale * np.sin(2 * np.pi * k / n)
            bound = 4 * n * eps
        else:
            # eigenvalues 4 scale sin^2((k + 1) pi / (2 (n + 1))); an eps
            # relative change of the diagonal moves the smallest by
            # eps kappa / 2 relative to itself, so no backward stable
            # solve promises better than about eps kappa for it
            scale = norm / 4
            z = 4 * scale * np.sin((k + 1) * np.pi / (2 * (n + 1))) ** 2
            bound = max(4 * n, 2 * z.max() / z.min()) * eps
        t = generate(OperatorSpec(kind, dim=n, scale=scale))
        d = decompose(t)
        source_norm = d.source_norm
        want = np.sort(1.0 / (1.0 + z * z))
        got = d._weights
        assert np.all(np.diff(got) >= 0.0)
        assert np.max(np.abs(got - want) / want) <= bound, (norm, bound)
        assert abs(source_norm - z.max()) <= 4 * n * eps * z.max()


def _dense_normal_of_rank(n, rank, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    z = np.zeros(n, dtype=complex)
    z[:rank] = rng.normal(size=rank) + 1j * rng.normal(size=rank)
    return OperatorMatrix((q * z) @ q.conj().T)


NULL_BLOCK_CASES = {
    # null singular values 1.6e-44 and exactly 0 from the solve
    "momentum_1d_6": lambda: generate(
        OperatorSpec("momentum_1d", dim=6, scale=2154.0)),
    "zero_1": lambda: OperatorMatrix(np.zeros((1, 1))),
    "zero_8": lambda: OperatorMatrix(np.zeros((8, 8))),
    "half_null_384": lambda: OperatorMatrix(
        np.diag(np.r_[np.zeros(192), np.arange(1.0, 193.0)])),
    "rank_44_of_64": lambda: _dense_normal_of_rank(64, 44, 64),
}


@pytest.mark.parametrize("case", NULL_BLOCK_CASES)
def test_null_block_completes_an_orthonormal_eigenbasis(case):
    # U = G/s holds on T's range; on its null modes G is rounding, and
    # the complement of the range columns takes their place
    from spectral_forge.pipeline import spectral_theorem
    t = NULL_BLOCK_CASES[case]()
    n = t.dim
    u = decompose(t)._unitary
    eps = np.finfo(np.float64).eps
    assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 8 * n * eps * np.sqrt(n)
    report = spectral_theorem(t).report
    assert report.all_passed, report.residuals
    report = verify(t, decompose(t))
    assert report.all_passed, report.residuals


def test_pair_solve_rotates_only_the_columns(monkeypatch):
    # V is never formed: each round with an active pivot turns the rows
    # of G^T once, where accumulating V turned a second array
    from spectral_forge import linalg
    calls = {"rotate": 0, "rounds": 0}
    rotate, rotation = linalg._rotate_rows, linalg._rotation

    def counted_rotate(*args):
        calls["rotate"] += 1
        return rotate(*args)

    def counted_rotation(*args):
        calls["rounds"] += 1
        return rotation(*args)

    monkeypatch.setattr(linalg, "_rotate_rows", counted_rotate)
    monkeypatch.setattr(linalg, "_rotation", counted_rotation)
    t = generate(OperatorSpec("random_normal", dim=12, scale=10.0, seed=12))
    decompose(t)
    assert calls["rounds"] > 0
    assert calls["rotate"] == calls["rounds"]


@pytest.mark.parametrize("kind, n", [
    ("random_normal", 12), ("momentum_1d", 12), ("random_unitary", 16),
], ids=["random_normal", "momentum_1d", "random_unitary"])
def test_b_is_the_whole_range_local_form_bit_for_bit(kind, n):
    # B = U_r (W^1/2 (U_r* T U_r) W^1/2) U_r*, its range block taken as one
    # block of the block-by-block local form; the reference is formed as
    # one product into the range block of an n x n array, from the same
    # row-major copy of U_r (momentum_1d has two null modes, so r < n)
    t = generate(OperatorSpec(kind, dim=n, scale=10.0, seed=5))
    d = decompose(t)
    r, w = d._rank, d._weights[:d._rank]
    assert (r < n) == (kind == "momentum_1d")
    ur = np.ascontiguousarray(d._unitary[:, :r])
    local = np.zeros((n, n), dtype=np.complex128)
    block = local[:r, :r]
    np.matmul(ur.conj().T, t.array @ ur, out=block)
    block *= np.sqrt(np.outer(w, w))
    u = d._unitary[:, :r]
    want = u @ local[:r, :r] @ u.conj().T
    got = d.b.array
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
