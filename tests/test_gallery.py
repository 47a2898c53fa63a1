import numpy as np
import pytest

from spectral_forge.errors import BadSpec
from spectral_forge.gallery import KINDS, OperatorSpec, generate
from spectral_forge.linalg import is_hermitian, is_normal

M64 = (1 << 64) - 1


def splitmix_uniform(seed, index):
    # straight reimplementation of the documented recipe on Python ints
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & M64
    z ^= z >> 31
    return (z >> 11) / float(1 << 53)


def test_uniform_stream_matches_integer_recipe():
    from spectral_forge.gallery import _uniforms
    got = _uniforms(42, 8)
    want = [splitmix_uniform(42, i) for i in range(8)]
    np.testing.assert_array_equal(got, want)
    shifted = _uniforms(42, 4, offset=3)
    np.testing.assert_array_equal(
        shifted, [splitmix_uniform(42, 3 + i) for i in range(4)])


def test_multiplication_hand_value():
    m = generate(OperatorSpec("multiplication", dim=4, scale=4.0))
    np.testing.assert_array_equal(m.array, np.diag([1.0, 2.0, 3.0, 4.0]))


def test_laplacian_structure_and_spectrum():
    n = 12
    m = generate(OperatorSpec("laplacian_1d", dim=n, scale=1.0))
    assert m.array[0, 0] == 2.0
    assert m.array[0, 1] == -1.0
    assert is_hermitian(m)
    want = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    got = np.linalg.eigvalsh(m.array)
    np.testing.assert_allclose(got, np.sort(want), atol=1e-12)


def test_momentum_spectrum():
    n = 10
    scale = 2.0
    m = generate(OperatorSpec("momentum_1d", dim=n, scale=scale))
    assert is_hermitian(m)
    want = np.sort(-scale * np.sin(2 * np.pi * np.arange(n) / n))
    got = np.linalg.eigvalsh(m.array)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_jordan_block_hand_value_and_non_normality():
    j = generate(OperatorSpec("jordan_block", dim=2))
    np.testing.assert_array_equal(j.array, [[0, 1], [0, 0]])
    for n in range(2, 9):
        jn = generate(OperatorSpec("jordan_block", dim=n))
        assert not is_normal(jn)


def test_random_normal_is_normal_with_annulus_spectrum():
    scale = 3.0
    m = generate(OperatorSpec("random_normal", dim=16, scale=scale, seed=1))
    assert is_normal(m)
    mags = np.abs(np.linalg.eigvals(m.array))
    assert mags.max() <= scale + 1e-9
    assert mags.min() >= 0.1 * scale - 1e-9


def test_random_hermitian_properties():
    m = generate(OperatorSpec("random_hermitian", dim=10, scale=2.0, seed=7))
    assert is_hermitian(m)
    vals = np.linalg.eigvalsh(m.array)
    assert np.all(np.abs(vals) <= 2.0 + 1e-9)


def test_random_unitary_is_scaled_unitary():
    scale = 1.5
    m = generate(OperatorSpec("random_unitary", dim=9, scale=scale, seed=11))
    gram = m.array.conj().T @ m.array
    np.testing.assert_allclose(gram, scale ** 2 * np.eye(9), atol=1e-12)


def test_seed_determinism():
    spec = OperatorSpec("random_normal", dim=8, scale=1.0, seed=123)
    a = generate(spec)
    b = generate(OperatorSpec("random_normal", dim=8, scale=1.0, seed=123))
    assert np.array_equal(a.array, b.array)
    c = generate(OperatorSpec("random_normal", dim=8, scale=1.0, seed=124))
    assert not np.array_equal(a.array, c.array)


def test_bad_specs():
    with pytest.raises(BadSpec):
        OperatorSpec("heat_kernel", dim=4)
    with pytest.raises(BadSpec):
        OperatorSpec("random_normal", dim=4)  # missing seed
    with pytest.raises(BadSpec):
        OperatorSpec("multiplication", dim=0)
    with pytest.raises(BadSpec):
        OperatorSpec("multiplication", dim=4, scale=0.0)
    with pytest.raises(BadSpec):
        OperatorSpec("multiplication", dim=4, scale=-2.0)
    with pytest.raises(BadSpec):  # an int past the double range
        OperatorSpec("random_normal", dim=4, scale=10**400, seed=1)
    with pytest.raises(BadSpec):
        OperatorSpec("from_file")
    # dim and seed are integers and scale a real number, none of them a
    # bool: each is refused here, not deep inside generate
    for bad in (dict(kind="random_normal", dim=4.5, seed=1),
                dict(kind="laplacian_1d", dim=3.0),
                dict(kind="random_normal", dim=4, seed=1.5),
                dict(kind="multiplication", dim=4, scale="2"),
                dict(kind="multiplication", dim=True),
                dict(kind="random_normal", dim=4, seed=True),
                dict(kind="multiplication", dim=4, scale=True)):
        with pytest.raises(BadSpec):
            OperatorSpec(**bad)
    # a dim is below 2^32, as a file's is, and a larger one is not quoted
    OperatorSpec("multiplication", dim=2**32 - 1)
    for dim in (2**32, 10**12, np.uint64(2**32)):
        with pytest.raises(BadSpec) as got:
            OperatorSpec("multiplication", dim=dim)
        assert str(got.value) == "dimension must be below 2^32"
    # numpy numbers are numbers, and give the same operator
    spec = OperatorSpec("random_normal", dim=np.int64(4), seed=np.int64(3),
                        scale=np.float64(2.0))
    np.testing.assert_array_equal(
        generate(spec).array,
        generate(OperatorSpec("random_normal", dim=4, seed=3,
                              scale=2.0)).array)


@pytest.mark.parametrize("kind,dim", [("laplacian_1d", 3),
                                      ("multiplication", 4)])
def test_an_overflowing_scale_is_a_bad_spec(kind, dim):
    # 2 scale and scale k overflow: a BadSpec naming the recipe, and no
    # RuntimeWarning on the way (the suite turns one into an error)
    with pytest.raises(BadSpec) as got:
        generate(OperatorSpec(kind, dim=dim, scale=1e308))
    assert str(got.value) == (f"{kind} at dim {dim} and scale 1e+308 "
                              "overflows: its entries are not finite")


@pytest.mark.parametrize("kind", ["jordan_block", "momentum_1d",
                                  "random_normal"])
def test_a_scale_near_the_float_limit_still_generates(kind):
    m = generate(OperatorSpec(kind, dim=4, scale=1e308, seed=3))
    assert np.all(np.isfinite(m.array))
    assert np.max(np.abs(m.array)) > 1e307


def test_kinds_tuple_is_complete():
    assert set(KINDS) == {
        "random_normal", "random_hermitian", "random_unitary",
        "multiplication", "laplacian_1d", "momentum_1d", "jordan_block",
    }
