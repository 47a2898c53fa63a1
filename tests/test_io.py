import gc
import json
import math
import os
import tracemalloc

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


AWKWARD = [1.0 / 3.0, 0.1, 1e-17, 1e300, 5e-324, -0.0,
           9007199254740993.0, 2.2250738585072014e-308]


def test_awkward_floats_survive():
    m = OperatorMatrix(np.array(AWKWARD).reshape(2, 4)[:2, :2])
    doc = io.matrix_to_doc(m)
    back = io.matrix_from_doc(json.loads(io.dumps(doc)))
    assert np.array_equal(m.array, back.array)
    # the full list, element by element
    for x in AWKWARD:
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


# entry counts at the edges of the writer's blocks
BLOCK_EDGES = [0, 1, io._BLOCK - 1, io._BLOCK, io._BLOCK + 1]


def _matrix_with(count: int, at: int, bad: float) -> dict:
    """A matrix document whose entries array holds ``bad`` at one double."""
    flat = np.linspace(-1.0, 1.0, 2 * count)
    flat[at % flat.size] = bad
    return {"dim": count, "entries": flat.view(np.complex128)}


NON_FINITE = (st.sampled_from([math.nan, math.inf, -math.inf,
                               np.float64(np.nan), np.float32(-np.inf)])
              | st.builds(_matrix_with, st.sampled_from(BLOCK_EDGES[1:]),
                          st.integers(0, 2**20),
                          st.sampled_from([math.nan, math.inf, -math.inf])))


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


def _entries(count: int, seed: int) -> np.ndarray:
    """``count`` entries of random finite doubles mixed with AWKWARD ones."""
    rng = np.random.default_rng(seed)
    flat = np.frombuffer(rng.bytes(16 * count), np.float64).copy()
    flat[~np.isfinite(flat)] = 0.5
    awkward = rng.random(flat.size) < 0.5
    flat[awkward] = rng.choice(AWKWARD, awkward.sum())
    return flat.view(np.complex128)


def _listed(value):
    """``value`` with entries arrays as pair lists, numpy scalars plain."""
    if isinstance(value, np.ndarray):
        return value.view(np.float64).reshape(-1, 2).tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {key: _listed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_listed(item) for item in value]
    return value


ESCAPED = st.text(st.sampled_from('"\\/\n\t\x00\x1f\u00e9\u2028\ud800a'),
                  max_size=5)
NUMPY_SCALARS = (st.integers(-2**63, 2**63 - 1).map(np.int64)
                 | FINITE.map(np.float64) | st.booleans().map(np.bool_)
                 | st.floats(width=32, allow_nan=False,
                             allow_infinity=False).map(np.float32))
MATRICES = st.builds(lambda count, seed: {"dim": count,
                                          "entries": _entries(count, seed)},
                     st.sampled_from(BLOCK_EDGES), st.integers(0, 2**32))
DOCS = st.recursive(
    LEAVES | ESCAPED | NUMPY_SCALARS | MATRICES,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4) | ESCAPED
                                     | st.just("entries"),
                                     inner, max_size=3)),
    max_leaves=6)


@PROPERTY
@given(DOCS)
def test_dumps_writes_what_json_dumps_writes_for_pair_lists(doc):
    assert io.dumps(doc) == json.dumps(_listed(doc)) + "\n"


@pytest.mark.parametrize("count", BLOCK_EDGES)
def test_entries_at_block_edges_round_trip(tmp_path, count):
    doc = {"dim": count, "entries": _entries(count, count)}
    path = str(tmp_path / "m.json")
    io.write_json(doc, path)
    with open(path) as handle:
        assert handle.read() == json.dumps(_listed(doc)) + "\n"
    back = io.read_json(path)["entries"]
    if count:  # an empty list is not decoded: it has no pairs to screen
        np.testing.assert_array_equal(back.view(np.uint64),
                                      doc["entries"].view(np.uint64))


@pytest.mark.parametrize("doc", [
    {"point": np.zeros(2)}, [np.zeros(1, complex)], np.zeros(1, complex),
    {"entries": [np.zeros(1, complex)]}, {"entries": np.zeros(2)}],
    ids=["field", "list", "top", "inside-entries", "real-entries"])
def test_array_outside_entries_is_refused(doc):
    with pytest.raises(ParseError, match="ndarray"):
        io.dumps(doc)


def test_write_json_refuses_non_finite_entries_before_opening(tmp_path):
    # the text is encoded whole before the file is opened, so a refused
    # document leaves nothing behind
    path = tmp_path / "m.json"
    with pytest.raises(NonFiniteValue):
        io.write_json(_matrix_with(io._BLOCK + 1, 2 * io._BLOCK, math.nan),
                      str(path))
    assert not path.exists()


def _peak(fn):
    """``fn()`` and the most memory it held at once, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_write_peak_stays_near_twice_the_text():
    # the text's pieces and their join, plus the measure's dense arrays
    # at 16 bytes an entry against about 45 bytes of text
    e = pvm_from_normal(generate(OperatorSpec("random_normal", dim=48,
                                              scale=10.0, seed=1)))
    text, peak = _peak(lambda: io.dumps(io.pvm_to_doc(e)))
    assert peak <= 2.5 * len(text)


def test_read_peak_stays_near_twice_the_file(tmp_path):
    # decoding holds the file's bytes beside its text for a moment; the
    # parse then holds the text, the arrays and one matrix's pair lists
    t = str(tmp_path / "t.json")
    io.write_matrix(generate(OperatorSpec("random_normal", dim=32,
                                          scale=10.0, seed=1)), t)
    bundle = str(tmp_path / "bundle.json")
    assert main(["pipeline", "--input", t, "--emit", "all",
                 "--output", bundle]) == 0
    size = os.path.getsize(bundle)
    doc, peak = _peak(lambda: io.read_json(bundle))
    assert peak <= 2 * size + 2**16
    assert isinstance(doc["e1"]["atoms"][0]["projection"]["entries"],
                      np.ndarray)


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


@pytest.mark.parametrize("key, of", [("spectral_measure", "T"), ("e1", "A"),
                                     ("e2", "B")], ids=["T", "A", "B"])
def test_pvm_round_trip_keeps_its_operator(tmp_path, key, of):
    # the label travels with the measure: written from it, read back
    # into it, and written again unchanged
    from spectral_forge.pipeline import spectral_theorem
    t = generate(OperatorSpec("random_normal", dim=5, scale=2.0, seed=27))
    first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
    io.write_pvm(getattr(spectral_theorem(t), key), first)
    io.write_pvm(io.read_pvm(first), second)
    assert [io.read_json(path)["of"] for path in (first, second)] == [of, of]


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
