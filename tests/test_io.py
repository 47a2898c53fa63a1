import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_forge import io
from spectral_forge.cli import main
from spectral_forge.decomposition import decompose, verify
from spectral_forge.errors import FileError, NonFiniteValue, ParseError
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import OperatorMatrix
from spectral_forge.measures import pvm_from_normal
from spectral_forge.product import product_measure


def test_matrix_round_trip_bit_identical(tmp_path):
    m = generate(OperatorSpec("random_normal", dim=7, scale=3.0, seed=15))
    path = str(tmp_path / "m.json")
    io.write_matrix(m, path)
    back = io.read_matrix(path)
    assert np.array_equal(m.array, back.array)


def test_identity_round_trip(tmp_path):
    path = str(tmp_path / "i.json")
    io.write_matrix(OperatorMatrix.identity(2), path)
    back = io.read_matrix(path)
    assert np.array_equal(back.array, np.eye(2))


def test_awkward_floats_survive():
    values = [1.0 / 3.0, 0.1, 1e-17, 1e300, 5e-324, -0.0,
              9007199254740993.0, 2.2250738585072014e-308]
    m = OperatorMatrix(np.array(values[:4] + values[4:]).reshape(2, 4)[:2, :2])
    doc = io.matrix_to_doc(m)
    back = io.matrix_from_doc(json.loads(io.dumps(doc)))
    assert np.array_equal(m.array, back.array)
    # the full list, element by element
    for x in values:
        doc = {"dim": 1, "entries": [[x, 0.0]]}
        text = io.dumps(doc)
        again = io.matrix_from_doc(json.loads(text))
        assert again.array[0, 0].real == x or (
            np.isnan(x) and np.isnan(again.array[0, 0].real))


PROPERTY = settings(max_examples=300, derandomize=True, database=None,
                    deadline=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
LEAVES = (st.none() | st.booleans() | st.integers() | FINITE
          | st.text(max_size=4))


@PROPERTY
@given(st.lists(FINITE, min_size=8, max_size=8))
def test_every_finite_double_survives_bit_for_bit(parts):
    # uint64 views see the sign of zero, which == cannot
    m = OperatorMatrix(np.array(parts).view(np.complex128).reshape(2, 2))
    back = io.matrix_from_doc(json.loads(io.dumps(io.matrix_to_doc(m))))
    np.testing.assert_array_equal(back.array.view(np.uint64),
                                  m.array.view(np.uint64))


def _around(inner):
    """A list or object holding ``inner`` among finite leaves."""
    return (st.tuples(st.lists(LEAVES, max_size=3), inner,
                      st.lists(LEAVES, max_size=3))
            .map(lambda t: t[0] + [t[1]] + t[2])
            | st.tuples(st.dictionaries(st.text(max_size=4), LEAVES, max_size=3),
                        st.text(max_size=4), inner)
            .map(lambda t: {**t[0], t[1]: t[2]}))


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf,
                              np.float64(np.nan), np.float32(-np.inf)])


@PROPERTY
@given(st.recursive(NON_FINITE, _around, max_leaves=8))
def test_non_finite_anywhere_is_refused(doc):
    with pytest.raises(NonFiniteValue):
        io.dumps(doc)


@PROPERTY
@given(st.integers(-2**63, 2**63 - 1), st.floats(width=32, allow_nan=False,
                                                 allow_infinity=False))
def test_numpy_scalars_serialize(i, f):
    doc = {"i": np.int64(i), "f": np.float32(f), "v": [np.float64(f)]}
    assert json.loads(io.dumps(doc)) == {"i": i, "f": f, "v": [f]}


def test_dumps_is_deterministic():
    m = generate(OperatorSpec("random_hermitian", dim=5, scale=1.0, seed=3))
    doc1 = io.matrix_to_doc(m)
    doc2 = io.matrix_to_doc(m)
    assert io.dumps(doc1) == io.dumps(doc2)


def test_dumps_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        io.dumps({"x": float("inf")})


def test_read_missing_file():
    with pytest.raises(FileError):
        io.read_matrix("/nonexistent/nowhere.json")


def test_write_to_bad_directory():
    with pytest.raises(FileError):
        io.write_matrix(OperatorMatrix.identity(1), "/nonexistent/dir/m.json")


def test_truncated_json_names_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "entries": [[1.0, 0.0')
    with pytest.raises(ParseError, match="line"):
        io.read_matrix(str(path))


def test_missing_field_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2}')
    with pytest.raises(ParseError, match="entries"):
        io.read_matrix(str(path))


def test_entry_count_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "entries": [[1.0, 0.0]]}')
    with pytest.raises(ParseError, match="expected 4 entries"):
        io.read_matrix(str(path))


def test_non_finite_entry_rejected():
    with pytest.raises(ParseError, match="entries"):
        io.matrix_from_doc({"dim": 1, "entries": [["oops", 0.0]]})
    with pytest.raises(ParseError):
        io.matrix_from_doc({"dim": 1, "entries": [[1.0]]})


def _decode_entry_by_entry(entries: list) -> np.ndarray:
    """The reference decoder: every pair checked and converted alone."""
    values = []
    for i, pair in enumerate(entries):
        at = f"matrix.entries[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{at}: expected [real, imaginary] pair")
        parts = []
        for x in pair:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ParseError(f"{at}: expected a number")
            try:
                x = float(x)
            except OverflowError:
                x = math.inf
            if not math.isfinite(x):
                raise ParseError(f"{at}: not a finite double")
            parts.append(x)
        values.append(complex(*parts))
    return np.array(values, dtype=np.complex128)


NUMBERS = (st.integers()
           | st.sampled_from([2**70, -2**70, 10**400, -10**400, 0, 2**53 + 1])
           | FINITE
           | st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, 1e308]))
ANY_LEAF = (NUMBERS | st.none() | st.booleans() | st.text(max_size=3)
            | st.sampled_from([math.inf, -math.inf, math.nan]))
NON_PAIRS = (ANY_LEAF
             | st.lists(NUMBERS, max_size=3).filter(lambda x: len(x) != 2)
             | st.dictionaries(st.text(max_size=2), NUMBERS, max_size=2))


def _square(entry):
    """Entry lists of a square size, 1, 4 or 9 entries long."""
    return st.sampled_from([1, 4, 9]).flatmap(
        lambda size: st.lists(entry, min_size=size, max_size=size))


@PROPERTY
@given(_square(st.lists(NUMBERS, min_size=2, max_size=2))
       | _square(st.lists(ANY_LEAF, min_size=2, max_size=2) | NON_PAIRS))
def test_matrix_decode_matches_the_entry_by_entry_reference(entries):
    doc = {"dim": math.isqrt(len(entries)), "entries": entries}
    try:
        expected = _decode_entry_by_entry(entries)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            io.matrix_from_doc(doc)
        assert str(got.value) == str(exc)
        return
    # uint64 views see the sign of zero, which == cannot
    np.testing.assert_array_equal(
        io.matrix_from_doc(doc).array.reshape(-1).view(np.uint64),
        expected.view(np.uint64))


@pytest.mark.parametrize("text", ['[[true, 0.0]]', '[["1.5", 0.0]]',
                                  '[[null, 0]]', '[[1, 2, 3]]',
                                  '[{"re": 1}]'])
def test_entry_that_is_not_a_pair_of_numbers_is_refused(text):
    with pytest.raises(ParseError, match=r"^matrix\.entries\[0\]: expected"):
        io.matrix_from_doc({"dim": 1, "entries": json.loads(text)})


def test_integer_pair_reads_as_complex():
    m = io.matrix_from_doc({"dim": 1, "entries": json.loads("[[1, 2]]")})
    assert m.array.dtype == np.complex128
    assert m.array[0, 0] == 1 + 2j


@pytest.mark.parametrize("last, message", [
    ("[2.0, true]", "expected a number"),
    ('[2.0, "1.5"]', "expected a number"),
    ("[2.0, null]", "expected a number"),
    ("[2.0, 1e999]", "not a finite double"),
    ("[2.0, 1" + "0" * 400 + "]", "not a finite double"),
    ("[1.0]", "expected [real, imaginary] pair")])
def test_bad_last_entry_is_named_by_index(last, message):
    text = "[" + "[0.5, -1], " * 8 + last + "]"
    with pytest.raises(ParseError) as got:
        io.matrix_from_doc({"dim": 3, "entries": json.loads(text)})
    assert str(got.value) == f"matrix.entries[8]: {message}"


def test_valid_documents_skip_the_per_entry_loop(tmp_path, monkeypatch):
    # the loop only names a malformed pair; a valid document must decode
    # without it, however large
    def refuse(pair, where):
        raise AssertionError(f"per-entry decode of {where}")

    t = generate(OperatorSpec("random_normal", dim=5, scale=10.0, seed=9))
    io.write_matrix(t, str(tmp_path / "t.json"))
    path = str(tmp_path / "bundle.json")
    assert main(["pipeline", "--input", str(tmp_path / "t.json"),
                 "--emit", "all", "--output", path]) == 0
    bundle = io.read_json(path)
    order = np.random.default_rng(384).permutation(384)
    diagonal = OperatorMatrix(np.diag(np.linspace(-100.0, 100.0, 384)[order]))
    doc = json.loads(io.dumps(io.matrix_to_doc(diagonal)))

    monkeypatch.setattr(io, "_complex_from", refuse)
    assert np.array_equal(io.matrix_from_doc(doc).array, diagonal.array)
    assert np.array_equal(io.matrix_from_doc(bundle["t"]).array, t.array)
    io.decomposition_from_doc(bundle["decomposition"])
    for part in ("e1", "e2", "measure"):
        io.pvm_from_doc(bundle[part])
    io.product_from_doc(bundle["product"])


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ParseError, match="object"):
        io.read_json(str(path))


def test_pvm_round_trip(tmp_path):
    t = generate(OperatorSpec("random_normal", dim=6, scale=2.0, seed=25))
    e = pvm_from_normal(t)
    path = str(tmp_path / "e.json")
    io.write_pvm(e, path)
    back = io.read_pvm(path)
    assert back.num_atoms == e.num_atoms
    assert np.array_equal(back.points, e.points)
    for i in range(e.num_atoms):
        assert np.array_equal(back.projection(i).array, e.projection(i).array)
    assert back.ranks == e.ranks


def test_pvm_doc_dimension_check():
    doc = {"dim": 3, "of": "T",
           "atoms": [{"point": [0.0, 0.0],
                      "projection": {"dim": 2, "entries": [[1.0, 0.0]] * 4}}]}
    with pytest.raises(ParseError, match=r"atoms\[0\]"):
        io.pvm_from_doc(doc)


def test_report_round_trip(tmp_path):
    t = generate(OperatorSpec("random_normal", dim=4, scale=1.0, seed=2))
    rep = verify(t, decompose(t))
    path = str(tmp_path / "rep.json")
    io.write_report(rep, path)
    back = io.read_report(path)
    assert back.residuals == rep.residuals
    assert back.passed == rep.passed
    assert back.tolerances == rep.tolerances


def test_report_doc_type_checks():
    with pytest.raises(ParseError, match="pass"):
        io.report_from_doc({"residuals": {}, "pass": {"x": 1.0},
                            "tolerances": {}})
    with pytest.raises(ParseError, match="residuals"):
        io.report_from_doc({"residuals": {"x": True}, "pass": {},
                            "tolerances": {}})
    doc = json.loads('{"residuals": {"x": 1e999}, "pass": {"x": true}, '
                     '"tolerances": {"x": 1.0}}')
    with pytest.raises(ParseError, match=r"residuals\.x: not a finite double"):
        io.report_from_doc(doc)
    doc = json.loads('{"residuals": {"x": 1.0}, "pass": {"x": true}, '
                     '"tolerances": {"x": NaN}}')
    with pytest.raises(ParseError, match=r"tolerances\.x: not a finite double"):
        io.report_from_doc(doc)


def test_report_with_mismatched_blocks_is_rejected(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"residuals": {"reconstruction": 5.0},
                                "pass": {}, "tolerances": {}}))
    with pytest.raises(ParseError, match="rep.json: .*same checks"):
        io.read_report(str(path))
    with pytest.raises(ParseError, match="same checks in the same order"):
        io.report_from_doc({"residuals": {"a": 1.0, "b": 2.0},
                            "pass": {"b": True, "a": True},
                            "tolerances": {"a": 1.0, "b": 2.0}})


def test_decomposition_round_trip(tmp_path):
    t = generate(OperatorSpec("random_normal", dim=5, scale=2.0, seed=6))
    d = decompose(t)
    rep = verify(t, d)
    path = str(tmp_path / "d.json")
    io.write_decomposition(t, d, path, report=rep)
    t2, d2 = io.read_decomposition(path)
    assert np.array_equal(t2.array, t.array)
    assert np.array_equal(d2.a.array, d.a.array)
    assert np.array_equal(d2.b.array, d.b.array)
    assert d2.source_norm == d.source_norm


def test_decomposition_without_source(tmp_path):
    t = generate(OperatorSpec("random_normal", dim=3, scale=1.0, seed=8))
    d = decompose(t)
    path = str(tmp_path / "d.json")
    io.write_decomposition(None, d, path)
    t2, d2 = io.read_decomposition(path)
    assert t2 is None
    assert np.array_equal(d2.a.array, d.a.array)


def test_product_doc_round_trip():
    t = generate(OperatorSpec("random_normal", dim=5, scale=1.0, seed=12))
    d = decompose(t)
    prod = product_measure(pvm_from_normal(d.a), pvm_from_normal(d.b))
    doc = json.loads(io.dumps(io.product_to_doc(prod)))
    back = io.product_from_doc(doc)
    assert np.array_equal(back.t_points, prod.t_points)
    assert np.array_equal(back.w_points, prod.w_points)
    for i in range(prod.num_atoms):
        assert np.array_equal(back.projection(i).array,
                              prod.projection(i).array)
