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


def _twins(count: int, seed: int, how: str, at: int) -> tuple:
    """An entries array and a second one: itself, an equal copy, or a copy
    whose double ``at`` has the other sign of zero or is one ulp nearer 0."""
    first = _entries(count, seed)
    if how == "same":
        return first, first
    at %= 2 * count
    if how == "zero sign":
        first.view(np.float64)[at] = 0.0
    second = first.copy()
    flat = second.view(np.float64)
    if how == "zero sign":
        flat[at] = -0.0
    elif how == "ulp":
        flat[at] = np.nextafter(flat[at], 0.0)
    return first, second


# documents whose entries arrays repeat, bit for bit or nearly
REPEATS = st.builds(
    lambda twins, around: [{"dim": 1, "entries": twins[0]}, around,
                           {"e": {"entries": twins[1]}}, {"entries": twins[0]}],
    st.builds(_twins, st.sampled_from(BLOCK_EDGES[1:]), st.integers(0, 2**32),
              st.sampled_from(["same", "copy", "zero sign", "ulp"]),
              st.integers(0, 2**20)),
    DOCS)


@PROPERTY
@given(REPEATS)
def test_repeated_entries_are_written_as_json_dumps_writes_them(doc):
    assert io.dumps(doc) == json.dumps(_listed(doc)) + "\n"


def test_arrays_differing_in_the_sign_of_a_zero_are_written_apart():
    doc = [{"entries": np.array([0.0, 2.0 + 1.0j])},
           {"entries": np.array([-0.0, 2.0 + 1.0j])}]
    assert io.dumps(doc) == ('[{"entries": [[0.0, 0.0], [2.0, 1.0]]}, '
                             '{"entries": [[-0.0, 0.0], [2.0, 1.0]]}]\n')


def test_one_ulp_twins_do_not_reuse_text():
    # arrays one ulp apart, repeated, copied and sliced: the exact bytes
    # alone decide which text is reused
    first, second = _twins(io._BLOCK + 1, 4, "ulp", 5)
    doc = [{"entries": first}, {"entries": second}, {"entries": first},
           {"entries": first.copy()}, {"entries": second[:1]}]
    assert io.dumps(doc) == json.dumps(_listed(doc)) + "\n"


def test_equal_checksums_do_not_reuse_text(monkeypatch):
    # with every array under one checksum, the compare of their words
    # alone decides which text is reused
    monkeypatch.setattr(io.zlib, "crc32", lambda data: 0)
    first, second = _twins(io._BLOCK + 1, 4, "zero sign", 7)
    doc = [{"entries": first}, {"entries": second}, {"entries": first[:3]},
           {"entries": second.copy()}, {"entries": first}]
    assert io.dumps(doc) == json.dumps(_listed(doc)) + "\n"


@pytest.mark.parametrize("how", ["same", "copy"])
def test_repeated_array_outside_entries_is_still_refused(how):
    first, second = _twins(3, 2, how, 0)
    with pytest.raises(ParseError, match="ndarray"):
        io.dumps({"a": {"entries": first}, "b": {"point": second}})


@pytest.mark.parametrize("how", ["same", "copy"])
def test_repeated_non_finite_entries_are_still_refused(how):
    first, second = _twins(io._BLOCK + 1, 3, how, 0)
    first[-1] = second[-1] = complex(math.nan, 0.0)
    with pytest.raises(NonFiniteValue):
        io.dumps([{"entries": first}, {"entries": second}])


def test_each_distinct_entries_array_is_encoded_once(tmp_path, monkeypatch):
    # on this bundle E_A, E_B, the product and E_T hold the same
    # projections, in other orders: their text is encoded once
    t = str(tmp_path / "t.json")
    io.write_matrix(generate(OperatorSpec("random_normal", dim=8,
                                          scale=10.0, seed=3)), t)
    blocks = []
    encode = json.dumps

    def seen(value, *args, **kwargs):
        if isinstance(value, list):  # a block of pairs: no other leaf is
            blocks.append(np.array(value, dtype=np.float64).tobytes())
        return encode(value, *args, **kwargs)

    monkeypatch.setattr(io.json, "dumps", seen)
    bundle = str(tmp_path / "bundle.json")
    assert main(["pipeline", "--input", t, "--emit", "all",
                 "--output", bundle]) == 0
    monkeypatch.undo()
    doc = io.read_json(bundle)
    projections = {part: sorted(atom["projection"]["entries"].tobytes()
                                for atom in doc[part]["atoms"])
                   for part in ("e1", "e2", "product", "measure")}
    assert len(projections["e1"]) == 8
    for part in ("e2", "product", "measure"):
        assert projections[part] == projections["e1"]
    arrays = [doc["t"], doc["decomposition"]["a"], doc["decomposition"]["b"]]
    distinct = {m["entries"].tobytes() for m in arrays}
    distinct.update(projections["e1"])
    assert sorted(blocks) == sorted(distinct)  # 64 pairs: one block each


def _same(got, want) -> bool:
    """Equal keys, order and types, and arrays equal bit for bit."""
    if type(got) is not type(want):
        return False
    if isinstance(got, dict):
        return list(got) == list(want) and all(_same(got[k], want[k])
                                               for k in got)
    if isinstance(got, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(got, np.ndarray):
        return (got.dtype == want.dtype and got.shape == want.shape
                and got.tobytes() == want.tobytes())
    return got == want


def _bundle(tmp_path, dim: int) -> str:
    t = str(tmp_path / "t.json")
    io.write_matrix(generate(OperatorSpec("random_normal", dim=dim,
                                          scale=10.0, seed=3)), t)
    bundle = str(tmp_path / "bundle.json")
    assert main(["pipeline", "--input", t, "--emit", "all",
                 "--output", bundle]) == 0
    return bundle


def test_each_distinct_entries_text_is_parsed_once(tmp_path, monkeypatch):
    # the read-side mirror of the encoder's memo: E_A, E_B, the product
    # and E_T hold the same projections, whose text is decoded once
    bundle = _bundle(tmp_path, 8)
    with open(bundle) as handle:
        want = json.loads(handle.read(), object_hook=io._decode_entries)
    decoded = []
    pairs = io._pairs

    def seen(values):
        decoded.append(len(values))
        return pairs(values)

    monkeypatch.setattr(io, "_pairs", seen)
    got = io.read_json(bundle)
    monkeypatch.undo()
    assert _same(got, want)
    arrays = [got["t"], got["decomposition"]["a"], got["decomposition"]["b"]]
    arrays += [atom["projection"] for part in ("e1", "e2", "product",
                                               "measure")
               for atom in got[part]["atoms"]]
    assert len(arrays) == 3 + 4 * 8
    distinct = {m["entries"].tobytes() for m in arrays}
    assert len(distinct) == 3 + 8  # T, A, B and E_A's projections
    assert decoded == [64] * len(distinct)


def _shuffled_diagonal_file(tmp_path) -> str:
    order = np.random.default_rng(384).permutation(384)
    diagonal = np.diag(np.linspace(-100.0, 100.0, 384)[order])
    path = str(tmp_path / "t.json")
    io.write_matrix(OperatorMatrix(diagonal), path)
    return path


def _one_parse(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.read(), object_hook=io._decode_entries)


def test_read_without_repeats_holds_no_extra_copy(tmp_path):
    # one n = 384 matrix, 1.8 MB of text, decodes piece by piece into
    # one array: the text, its 2.4 MB of complex128 and one piece's pair
    # lists, 5.0 MiB in all; the one json.loads parse, which holds every
    # pair's list and floats, peaks at 27.1 MiB
    path = _shuffled_diagonal_file(tmp_path)
    want = _one_parse(path)
    got, peak = _peak(lambda: io.read_json(path))
    assert _same(got, want)
    assert peak <= 8 * 2**20


def _rewritten(path: str, **layout) -> str:
    """The document at ``path`` rewritten by ``json.dumps`` with ``layout``."""
    with open(path) as handle:
        doc = json.load(handle)
    with open(path, "w") as handle:
        handle.write(json.dumps(doc, **layout))
    return path


def _mixed(path: str) -> str:
    """The file at ``path`` with its pairs compact after its first pieces.

    The first ``], [`` cuts pieces as usual; past them only ``],[`` is
    left, so the last piece holds more pairs than the count of ``], [``
    allows for.
    """
    with open(path) as handle:
        text = handle.read()
    at = 2 * io._PIECE + 100
    with open(path, "w") as handle:
        handle.write(text[:at] + text[at:].replace("], [", "],["))
    return path


@pytest.mark.parametrize("layout", [
    lambda path: _rewritten(path, separators=(",", ":")),
    lambda path: _rewritten(path, indent=1),
    _mixed,
], ids=["compact", "indent", "mixed"])
def test_other_layouts_read_as_the_one_parse_reads_them(tmp_path, layout):
    path = layout(_shuffled_diagonal_file(tmp_path))
    with open(path) as handle:
        assert io._parse_once(handle.read()) is None
    assert _same(io.read_json(path), _one_parse(path))


@pytest.mark.parametrize("value, message", [
    ("true", "t.json.entries[{}]: expected a number"),
    ('"1.5"', "t.json.entries[{}]: expected a number"),
], ids=["bad-pair", "string"])
def test_a_bad_pair_in_a_late_piece_is_named_by_its_index(
        tmp_path, value, message):
    # the piecewise decode declines, and the one parse keeps the list
    # for matrix_from_doc to name its bad pair
    path = _shuffled_diagonal_file(tmp_path)
    with open(path) as handle:
        text = handle.read()
    at = 2 * io._PIECE + 100  # inside the third piece
    at = text.index("], [", at) + 3
    index = text.count("], [", 0, at + 1)
    comma = text.index(",", at)
    text = text[:at + 1] + value + text[comma:]
    with open(path, "w") as handle:
        handle.write(text)
    assert io._parse_once(text) is None
    with pytest.raises(ParseError) as got:
        io.read_matrix(path)
    assert str(got.value) == message.format(index)


_PAIR = '{"dim": 1, "entries": [[1.5, -2.0]]}'
_REPEATS = f'"a": {_PAIR}, "b": {_PAIR}'
_BAD = '{"dim": 2, "entries": [[1, 2], [3, true], [0, 0], [0, 0]]}'


def _read(path: str):
    """``read_json``'s document, or the text of its ParseError."""
    try:
        return io.read_json(path)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("text, declined", [
    ('{%s, "c": {"dim": 1, "entries":[[1.5, -2.0]]}}' % _REPEATS, False),
    ('{"note": "\\"entries\\": [[1, 2]]", %s}' % _REPEATS, False),
    ('{"x\\"entries": [[1.5, -2.0]], %s}' % _REPEATS, True),
    ('{"m": {"dim": 1, "entries": [[1.5, -2.0]], "entries": [[1.5, -2.0]]}, '
     '"n": %s}' % _PAIR, True),
    ('{"a": %s, "b": %s, "source_norm": 1.0}' % (_BAD, _BAD), True),
    ('{"a": {"dim": 2, "entries": [[1, [2]], [3, 4]]}, '
     '"b": {"dim": 2, "entries": [[1, [2]], [3, 4]]}}', True),
    ('{"a": {"entries": [[1.5, -2.0] ], "k": [[0]]}, '
     '"b": {"entries": [[1.5, -2.0] ], "k": [[0]]}}', True),
    ('{"a": {"dim": 1, "entries": []}, "b": {"dim": 1, "entries": []}}',
     True),
    ('{"note": "\\u0000", %s}' % _REPEATS, True),
    ('{%s, "c": {"dim": 1, "entries": [[1.5, -2.0]]' % _REPEATS, True),
], ids=["no-space", "in-a-string", "key-ending-in-entries", "duplicate-key",
        "repeated-bad-pair", "nested-list", "ends-past-first-brackets",
        "empty-lists", "nul-escape", "truncated"])
def test_doubtful_repeats_read_as_the_one_parse_reads_them(
        tmp_path, monkeypatch, text, declined):
    # each document repeats an entries text; where the parse-once path
    # is in doubt it declines, and read_json gives the document or the
    # error of the one json.loads parse
    path = str(tmp_path / "d.json")
    with open(path, "w") as handle:
        handle.write(text)
    assert (io._parse_once(text) is None) == declined
    got = _read(path)
    monkeypatch.setattr(io, "_parse_once", lambda raw: None)
    assert _same(got, _read(path))


def test_repeated_bad_pair_is_named_by_its_index(tmp_path):
    path = str(tmp_path / "d.json")
    with open(path, "w") as handle:
        handle.write('{"a": %s, "b": %s, "source_norm": 1.0}' % (_BAD, _BAD))
    doc = io.read_json(path)
    for part in ("a", "b"):
        with pytest.raises(ParseError) as got:
            io.matrix_from_doc(doc[part], part)
        assert str(got.value) == f"{part}.entries[1]: expected a number"


@pytest.mark.parametrize("cut", [0.3, 0.7])
def test_truncated_bundle_names_the_same_position(tmp_path, monkeypatch, cut):
    bundle = _bundle(tmp_path, 8)
    with open(bundle) as handle:
        text = handle.read()
    with open(bundle, "w") as handle:
        handle.write(text[:int(cut * len(text))])
    with pytest.raises(ParseError) as got:
        io.read_json(bundle)
    monkeypatch.setattr(io, "_parse_once", lambda raw: None)
    with pytest.raises(ParseError) as want:
        io.read_json(bundle)
    assert str(got.value) == str(want.value)
    assert "line 1 column" in str(got.value)


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


def test_write_of_one_large_matrix_copies_no_entries(tmp_path):
    # the bench's n = 384 input, 1.8 MB of text: the write holds the
    # text's pieces and their join, 3.4 MiB, and no copy of the matrix's
    # 2.4 MB of entries as its memo key (4.24 MiB with one)
    n, seed = 384, 601 * 100_000
    t = generate(OperatorSpec("multiplication", dim=n, scale=100.0, seed=seed))
    order = np.random.default_rng(seed).permutation(n)
    t = OperatorMatrix(np.diag(np.diag(t.array)[order]))
    path = str(tmp_path / "t.json")
    _, peak = _peak(lambda: io.write_matrix(t, path))
    assert peak <= 3.5 * 2**20
    assert np.array_equal(io.read_matrix(path).array, t.array)


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


def test_pvm_round_trip_keeps_its_radius(tmp_path):
    # a measure of T built with a radius writes it between "of" and
    # "atoms" and reads it back; a default one writes no "cluster" key
    from spectral_forge.linalg import Tolerances
    t = generate(OperatorSpec("random_normal", dim=5, scale=2.0, seed=27))
    for tol, keys in ((None, ["dim", "of", "atoms"]),
                      (Tolerances(cluster=1e-6),
                       ["dim", "of", "cluster", "atoms"])):
        e = pvm_from_normal(t, tol)
        path = str(tmp_path / "e.json")
        io.write_pvm(e, path)
        assert list(io.read_json(path)) == keys
        back = io.read_pvm(path)
        assert back.cluster == e.cluster
        assert io.dumps(io.pvm_to_doc(back)) == io.dumps(io.pvm_to_doc(e))


@pytest.mark.parametrize("radius", [1, np.float32(0.5), np.float64(1e-6)],
                         ids=["int", "float32", "float64"])
def test_a_radius_is_written_as_a_double_and_rewritten_unchanged(tmp_path,
                                                                  radius):
    from spectral_forge.linalg import Tolerances
    t = generate(OperatorSpec("random_normal", dim=3, scale=2.0, seed=27))
    first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
    io.write_pvm(pvm_from_normal(t, Tolerances(cluster=radius)), first)
    io.write_pvm(io.read_pvm(first), second)
    assert io.read_json(first)["cluster"] == float(radius)
    assert open(first).read() == open(second).read()


@pytest.mark.parametrize("of, cluster, error", [
    ("T", -1, "cluster must be strictly positive"),
    ("T", "x", "expected a number"),
    ("T", True, "expected a number"),
    ("A", 1e-6, "carries no cluster radius"),
])
def test_pvm_doc_radius_check(of, cluster, error):
    doc = {"dim": 1, "of": of, "cluster": cluster,
           "atoms": [{"point": [0.0, 0.0],
                      "projection": {"dim": 1, "entries": [[1.0, 0.0]]}}]}
    with pytest.raises(ParseError, match=error):
        io.pvm_from_doc(doc)


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


@pytest.mark.parametrize("doc", [
    {},
    {"residuals": {"x": "nan?"}, "pass": {"x": "yes"},
     "tolerances": {"x": None}},
], ids=["empty", "untyped"])
def test_read_report_refuses_what_is_no_report(tmp_path, doc):
    # report_from_doc is the one reader: neither document reads as a
    # report whose every check passed
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="rep.json"):
        io.read_report(str(path))


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


@pytest.mark.parametrize("field, value, message", [
    ("dim", 2.5, "field 'dim' must be an integer"),
    ("atoms", {}, "field 'atoms' must be list"),
    ("atoms", [], "a measure needs at least one atom"),
])
def test_malformed_measure_fields_exit_2(tmp_path, capsys, field, value,
                                         message):
    t = str(tmp_path / "t.json")
    e = str(tmp_path / "e.json")
    assert main(["gen", "--kind", "random_normal", "--dim", "3", "--seed",
                 "1", "--output", t]) == 0
    assert main(["spectrum", "--input", t, "--emit", "measure",
                 "--output", e]) == 0
    doc = json.loads(open(e).read())
    doc[field] = value
    open(e, "w").write(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--pvm", e]) == 2
    assert f"e.json: {message}" in capsys.readouterr().err


def test_matrix_of_dimension_0_exits_2(tmp_path, capsys):
    t = tmp_path / "t.json"
    t.write_text('{"dim": 0, "entries": []}')
    assert main(["spectrum", "--input", str(t)]) == 2
    assert "t.json: dim must be at least 1" in capsys.readouterr().err


def test_matrix_of_a_huge_dimension_is_not_quoted(tmp_path, capsys):
    # a dim past the double range exits 2 with a message of bounded
    # length, which names the limit and not the number
    t = tmp_path / "t.json"
    t.write_text('{"dim": %d, "entries": [[1, 2]]}' % 10**400)
    assert main(["spectrum", "--input", str(t)]) == 2
    err = capsys.readouterr().err
    assert "t.json: dim must be below 2^32" in err
    assert "0" * 20 not in err and len(err) < 200


@pytest.mark.parametrize("text", [
    '{"dim": 1, "entries": [[%s, 0]]}', '{"dim": %s, "entries": [[1, 0]]}'],
    ids=["entry", "dim"])
def test_integer_of_too_many_digits_exits_2(tmp_path, capsys, text):
    # past the digits int() reads from text, json raises a ValueError of
    # its own, which is a parse error like any other
    t = tmp_path / "t.json"
    t.write_text(text % ("1" * 5000))
    assert main(["spectrum", "--input", str(t)]) == 2
    assert "t.json: an integer has too many digits" in capsys.readouterr().err
