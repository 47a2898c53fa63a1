import numpy as np
import pytest

from spectral_forge.decomposition import (
    Decomposition,
    decompose,
    norm_bounds,
    verify,
)
from spectral_forge.errors import DimensionMismatch, NotNormal
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import OperatorMatrix, is_hermitian, op_norm_2


def test_scalar_hand_value():
    # A = 1/(1+|2i|^2) = 1/5, B = 2i/5
    t = OperatorMatrix(np.array([[2j]]))
    d = decompose(t)
    assert d.a.array[0, 0] == pytest.approx(0.2)
    assert d.b.array[0, 0] == pytest.approx(0.4j)


def test_zero_operator():
    t = OperatorMatrix.zeros(3)
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
    t2 = OperatorMatrix.identity(2)
    d3 = decompose(OperatorMatrix.identity(3))
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
    # eigensolve of A: no cold op_norm_2, and never the stored source_norm
    from spectral_forge import decomposition
    t = generate(OperatorSpec("random_normal", dim=16, scale=30.0, seed=9))
    d = decompose(t)
    cold = op_norm_2(t)

    def refuse(*args, **kwargs):
        raise AssertionError("verify ran a cold op_norm_2")

    monkeypatch.setattr(decomposition, "op_norm_2", refuse)
    report = verify(t, d)
    tampered = verify(t, Decomposition(d.a, d.b, 1e-3))
    assert report.all_passed, report.residuals
    assert tampered.residuals == report.residuals
    assert tampered.tolerances == report.tolerances
    rel = 1e-10 * t.dim
    assert report.tolerances["injectivity_margin"] == pytest.approx(
        1.0 / (1.0 + cold * cold) - rel, rel=1e-12)


@pytest.mark.parametrize("n", [32, 96])
@pytest.mark.parametrize("kind", ["momentum_1d", "laplacian_1d"])
def test_pair_weights_are_relative_accurate_at_every_norm(kind, n):
    # the weights 1/(1 + s^2) of A against the closed-form spectrum; a
    # solve of the formed I + T*T loses eps ||T||^2 of their relative
    # accuracy, 1e-4 at ||T|| = 1e6
    from spectral_forge.decomposition import _bounded_pair
    from spectral_forge.linalg import DEFAULT_TOLERANCES
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
        d, es, _ = _bounded_pair(t, DEFAULT_TOLERANCES)
        source_norm = d.source_norm
        want = np.sort(1.0 / (1.0 + z * z))
        got = es.eigenvalues.real
        assert np.all(np.diff(got) >= 0.0)
        assert np.max(np.abs(got - want) / want) <= bound, (norm, bound)
        assert abs(source_norm - z.max()) <= 4 * n * eps * z.max()
