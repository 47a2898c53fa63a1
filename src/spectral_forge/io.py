"""JSON persistence for matrices, measures, and reports.

Documents are written by the standard ``json`` encoder: every float as
the shortest text that reads back to the same double, so a write/read
cycle reproduces every double bit for bit, and keys in a fixed order so
identical inputs give byte-identical files.  Complex numbers are [real,
imaginary] pairs; matrices store row-major entry lists under their
dimension.  A ``*_to_doc`` document holds each matrix's entries as its
flat complex128 array, which ``dumps`` encodes a block of pairs at a
time, so no Python float exists per entry beyond one block.  A write
encodes each distinct array once, keyed on a checksum of its bytes
read in place and confirmed by comparing them: an array whose bytes
equal one already written in that document reuses its text, as the
measures of an ``--emit all`` bundle do, whose atoms repeat.  Every
piece is encoded before the file is opened, then the pieces are
written one by one, so a write holds the distinct texts and the piece
list, never the joined text.
``read_json`` decodes each valid ``entries`` list to such an array,
after an exact type screen; a malformed list stays a list, and
``matrix_from_doc`` names its first bad pair in a ParseError.  A read
decodes each distinct ``entries`` text once: copies of one text, found
and compared in the file's bytes, share one array (``_parse_once``).
Each distinct text decodes in pieces of about ``_PIECE`` characters,
cut between pairs, into one array; a piece is parsed as one flat list
of numbers after a byte screen and a proof from its commas that every
pair holds two (``_flat``), so one piece's floats and no list per pair
are alive at once, whether the file holds one matrix or many.  A file
with no such text, or whose bytes leave any doubt (other separators or
whitespace, a bad pair, a string), is decoded as a text-mode read
decodes it and parsed whole by ``json.loads``, which decodes each list
as the parser closes its object and reports errors as it always did.
A file whose text outside its ``entries`` lists is not UTF-8 is one
such doubt, so that one parse refuses it at the byte its decode names;
valid text past ASCII keeps the piecewise read.  The read peaks at the
file's bytes, the distinct arrays at 16 bytes a pair and one piece; a
file parsed whole also holds its text.  A measure document is
``{"dim", "of", "cluster", "atoms"}``: ``of`` is the measure's own label
of the operator it resolves (``"T"``, ``"A"`` or ``"B"``), written from
it and read back into it; ``cluster``, present only on a measure of T
built with an explicit radius, is the radius its atoms joined by, and
``verify`` judges the measure by it; each atom is a ``point`` with its
``projection``.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from itertools import chain

import numpy as np

from .decomposition import Decomposition
from .errors import FileError, NonFiniteValue, ParseError
from .linalg import _DIM_LIMIT, OperatorMatrix
from .measures import OPERATORS, SpectralMeasure
from .product import ProductMeasure
from .report import VerificationReport

__all__ = [
    "read_matrix", "write_matrix", "matrix_to_doc", "matrix_from_doc",
    "read_pvm", "write_pvm", "pvm_to_doc", "pvm_from_doc",
    "product_to_doc", "product_from_doc", "report_to_doc", "report_from_doc",
    "decomposition_to_doc", "decomposition_from_doc",
    "read_decomposition", "write_decomposition",
    "read_report", "write_report", "dumps", "read_json", "write_json",
]


# Pairs of an ``entries`` array per encoder call: bounds the Python
# floats that exist at once while a matrix is written.
_BLOCK = 1024
# Characters of an ``entries`` text per decoder call, give or take one
# pair: bounds the Python floats that exist at once while a matrix is
# read.
_PIECE = 1 << 16


def _plain(value):
    """``json.dumps`` hook: numpy scalars become Python numbers."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def dumps(doc) -> str:
    """Serialize with a fixed layout and shortest round-trip floats.

    Keys keep their order; a float is written as ``repr`` writes it, the
    shortest text that reads back to the same double.  The text is what
    ``json.dumps`` writes for the same document with every ``entries``
    array as its list of [real, imaginary] pairs.  Each distinct
    ``entries`` array is encoded once: a later array of the same bytes
    reuses its text.  NonFiniteValue on NaN or infinity, ParseError on a
    value JSON cannot hold, an array anywhere but under ``entries`` among
    them.
    """
    return "".join(_pieces(doc))


def _pieces(doc) -> list:
    """The pieces of ``dumps(doc)``, in order and not joined.

    A writer passes them to ``writelines``, so the whole text never
    exists at once; every piece is encoded before the first is written.
    """
    pieces = []
    try:
        _encode(doc, pieces, {})
    except ValueError as exc:
        raise NonFiniteValue("cannot serialize a non-finite number") from exc
    except TypeError as exc:
        raise ParseError(str(exc)) from exc
    pieces.append("\n")
    return pieces


def _encode(value, pieces: list, texts: dict, key=None):
    """Append the JSON text of ``value``, held under ``key``, to ``pieces``.

    Containers are walked, so that an ``entries`` array can be written
    ``_BLOCK`` pairs per encoder call; keys and every other leaf go
    through ``json.dumps``.  ``texts`` maps the CRC-32 of each
    ``entries`` array's bytes to the words and text pieces encoded so
    far, so equal bytes, and only they (``-0.0`` is not ``0.0``), are
    encoded once, with no copy of any array's bytes.
    """
    if (key == "entries" and isinstance(value, np.ndarray)
            and value.dtype == np.complex128):
        bits = _bits(value)
        same = texts.setdefault(zlib.crc32(bits), [])
        text = next((text for seen, text in same
                     if np.array_equal(seen, bits)), None)
        if text is None:
            pairs = bits.view(np.float64).reshape(-1, 2)
            text = ["["]
            for start in range(0, len(pairs), _BLOCK):
                block = json.dumps(pairs[start:start + _BLOCK].tolist(),
                                   allow_nan=False)[1:-1]
                text.append(", " + block if start else block)
            text.append("]")
            same.append((bits, text))
        pieces.extend(text)
    elif isinstance(value, dict):
        pieces.append("{")
        for i, (name, item) in enumerate(value.items()):
            # json.dumps's own key rules, refusals included
            name_text = json.dumps({name: 0}, allow_nan=False)[1:-4]
            pieces.append((", " if i else "") + name_text + ": ")
            _encode(item, pieces, texts, name)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(", ")
            _encode(item, pieces, texts)
        pieces.append("]")
    else:
        pieces.append(json.dumps(value, allow_nan=False, default=_plain))


def _bits(values: np.ndarray) -> np.ndarray:
    """Complex entries as flat uint64 words, which tell -0.0 from 0.0."""
    return np.ascontiguousarray(values).reshape(-1).view(np.uint64)


def write_json(doc: dict, path: str):
    pieces = _pieces(doc)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from exc


def read_json(path: str) -> dict:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from exc
    try:
        doc = _parse_once(raw)
        if doc is None:
            text = raw.decode("utf-8")
            if "\r" in text:  # the newlines a text-mode read translates
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            doc = json.loads(text, object_hook=_decode_entries)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # past the digits int() reads from text
        raise ParseError(f"{path}: an integer has too many digits") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return doc


# Where an ``entries`` value starts in text as ``dumps`` writes it; a
# valid value, a list of pairs, ends at the first ``]]`` after it.
_ENTRIES = b'"entries": ['


def _parse_once(raw: bytes) -> dict | None:
    """``raw`` parsed with each distinct ``entries`` text decoded once.

    Each ``"entries": [`` value found in the file is grouped with the
    others of the same text, compared by length and then in place, and
    each distinct text is decoded once, in bounded pieces
    (``_decode_span``); every copy gets that one array.  The rest of the
    document is parsed with each value replaced by a reference, a
    string holding a NUL and the value's index, which ``_resolve`` swaps
    for its array.  None, for ``read_json`` to decode ``raw`` and parse
    it whole with ``json.loads``, when the file has no such value or
    when anything is in doubt: a value that does not end at its first
    ``]]``, whose pairs are not separated by ``, `` or do not decode to
    valid pairs, a reference not consumed exactly once under an
    ``entries`` key, an error in the rest of the document, text that
    could hold a NUL of its own, or a rest that is not UTF-8.
    """
    # a backslash is rare in a bundle, and finding one is 30 times
    # cheaper than finding the escape itself
    if b"\0" in raw or b"\\" in raw and b"\\u0000" in raw:
        return None
    spans = []
    at = raw.find(_ENTRIES)
    while at >= 0:
        start = at + len(_ENTRIES) - 1
        end = raw.find(b"]]", start) + 2
        if end < 2:
            return None
        spans.append((start, end))
        at = raw.find(_ENTRIES, end)
    if not spans:
        return None
    by_length = {}
    for i, (start, end) in enumerate(spans):
        by_length.setdefault(end - start, []).append(i)
    first = list(range(len(spans)))  # the first span of each span's text
    for same in by_length.values():
        while len(same) > 1:
            start, end = spans[same[0]]
            text = raw[start:end]  # one distinct text at a time
            rest = []
            for i in same[1:]:
                if raw.startswith(text, spans[i][0]):
                    first[i] = same[0]
                else:
                    rest.append(i)
            same = rest
    arrays, pieces, at, used = {}, [], 0, []

    def _resolve(obj: dict) -> dict:
        ref = obj.get("entries")
        if isinstance(ref, str) and ref.startswith("\0"):
            i = int(ref[1:])
            used.append(i)
            obj["entries"] = arrays[first[i]]
            return obj
        return _decode_entries(obj)

    try:
        for i in sorted(set(first)):
            arrays[i] = _decode_span(raw, *spans[i])
            if arrays[i] is None:
                return None
        for i, (start, end) in enumerate(spans):
            pieces += [raw[at:start], b'"\\u0000%d"' % i]
            at = end
        pieces.append(raw[at:])
        doc = json.loads(b"".join(pieces).decode(), object_hook=_resolve)
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError):
        return None
    return doc if len(used) == len(spans) else None


def _decode_span(raw: bytes, start: int, end: int) -> np.ndarray | None:
    """The pairs of the list ``raw[start:end]`` as complex128, or None.

    The list is cut after a pair's ``]`` at each ``], [`` found at least
    ``_PIECE`` characters into a piece, and each piece is decoded by
    ``_flat`` as one flat list of numbers, so at most one piece's floats
    and no list per pair exist at once.  The pieces are valid lists of
    pairs exactly when the whole is.  A list of more than one piece goes
    into one array allocated up front, one pair per ``], [`` plus one.
    None when ``_flat`` is in doubt about a piece, or when the pieces
    hold another count of pairs: a pair separator other than ``, ``.
    """
    out, filled, at, last = None, 0, start + 1, end - 1
    while at < last:
        cut = raw.find(b"], [", min(at + _PIECE, last), last)
        stop = cut + 1 if cut >= 0 else last
        values = _flat(raw[at:stop])
        if values is None:
            return None
        if out is None:
            if cut < 0:  # the whole list in one piece
                return values
            out = np.empty(raw.count(b"], [", start, end) + 1,
                           dtype=np.complex128)
        if filled + values.size > out.size:
            return None
        out[filled:filled + values.size] = values
        filled += values.size
        at = stop + 2  # past the ", " between two pairs
    return out if out is not None and filled == out.size else None


def _flat(piece: bytes) -> np.ndarray | None:
    """The pairs ``[a, b], [c, d], ...`` of ``piece`` as complex128, or None.

    With its outer brackets dropped and each ``], [`` made ``, ``, the
    piece may hold only digits, ``.eE+-``, commas and spaces, so
    ``json.loads`` returns nothing but numbers; its commas must
    alternate, an odd count with exactly every second one after a ``]``,
    so every pair holds two numbers.  None on any doubt, for the whole
    parse to judge.
    """
    flat = piece[1:-1].replace(b"], [", b", ")
    chars = np.frombuffer(piece, np.uint8)
    after = chars[np.flatnonzero(chars == ord(",")) - 1] == ord("]")
    if (piece[:1] + piece[-1:] != b"[]"
            or flat.translate(None, b"0123456789.eE+-, ")
            or after.size % 2 == 0 or after[::2].any()
            or not after[1::2].all()):
        return None
    try:
        return _finite(json.loads(b"[" + flat + b"]"))
    except ValueError:  # not a list of numbers, or an integer too long
        return None


def _field(doc: dict, name: str, kind, where: str):
    """``doc[name]`` checked against ``kind`` (float, int, complex or a type)."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    if name not in doc:
        raise ParseError(f"{where}: missing field {name!r}")
    value = doc[name]
    if kind is float:
        return _double(value, f"{where}.{name}")
    if kind is complex:
        return _complex_from(_field(doc, name, list, where),
                             f"{where}.{name}")
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f"{where}: field {name!r} must be an integer")
        return value
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {name!r} must be {kind.__name__}")
    return value


def _double(value, where: str) -> float:
    """A JSON number as a finite double, else ParseError naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ParseError(f"{where}: not a finite double")
    return x


def _complex_from(pair, where: str) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ParseError(f"{where}: expected [real, imaginary] pair")
    return complex(_double(pair[0], where), _double(pair[1], where))


def _decode_entries(obj: dict) -> dict:
    """``json.loads`` hook: a valid ``entries`` list becomes complex128.

    Runs as the parser closes each object, so one matrix's pairs are the
    only lists alive at once.  A list ``_pairs`` refuses stays a list,
    for ``matrix_from_doc`` to name its bad pair.
    """
    entries = obj.get("entries")
    if isinstance(entries, list):
        values = _pairs(entries)
        if values is not None:
            obj["entries"] = values
    return obj


def _pairs(pairs: list) -> np.ndarray | None:
    """[real, imaginary] pairs as complex128, or None if any is not valid.

    Two-element lists of exact ``float``/``int`` leaves (so ``true`` and
    ``"1.5"`` are refused) convert in one pass (``_finite``).
    """
    if set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}:
        leaves = list(chain.from_iterable(pairs))
        if set(map(type, leaves)) <= {float, int}:
            return _finite(leaves)
    return None


def _finite(numbers: list) -> np.ndarray | None:
    """Numbers as complex128 pairs, or None if one is not a finite double."""
    try:
        flat = np.fromiter(numbers, np.float64, len(numbers))
    except OverflowError:  # an integer past double range
        return None
    return flat.view(np.complex128) if np.isfinite(flat).all() else None


def matrix_to_doc(m: OperatorMatrix) -> dict:
    return {"dim": m.dim, "entries": m.array.reshape(-1)}


def _dim(doc: dict, where: str) -> int:
    """``doc["dim"]``, an integer from 1 to below 2^32, else ParseError.

    A larger one is refused by the limit, not quoted: it may run to any
    number of digits, and no file holds its square of entries.
    """
    dim = _field(doc, "dim", int, where)
    if dim < 1:
        raise ParseError(f"{where}: dim must be at least 1")
    if dim >= _DIM_LIMIT:
        raise ParseError(f"{where}: dim must be below 2^32")
    return dim


def matrix_from_doc(doc: dict, where: str = "matrix") -> OperatorMatrix:
    dim = _dim(doc, where)
    entries = doc.get("entries")
    if not isinstance(entries, np.ndarray):  # else decoded by read_json
        entries = _field(doc, "entries", list, where)
    if len(entries) != dim * dim:
        raise ParseError(f"{where}: expected {dim * dim} entries, "
                         f"got {len(entries)}")
    if isinstance(entries, list):  # the loop only names a bad pair
        values = _pairs(entries)
        entries = values if values is not None else np.array(
            [_complex_from(pair, f"{where}.entries[{i}]")
             for i, pair in enumerate(entries)], dtype=np.complex128)
    return OperatorMatrix(entries.reshape(dim, dim))


def write_matrix(m: OperatorMatrix, path: str):
    write_json(matrix_to_doc(m), path)


def read_matrix(path: str) -> OperatorMatrix:
    return matrix_from_doc(read_json(path), where=os.path.basename(path))


def _read_atoms(doc: dict, where: str, head: tuple) -> tuple:
    """Dimension, head columns and projections of a measure document.

    ``head`` lists the kind's own atom fields as ``(name, kind)`` pairs;
    their values come back as one column per field, in atom order.
    """
    dim = _dim(doc, where)
    atoms = _field(doc, "atoms", list, where)
    if not atoms:
        raise ParseError(f"{where}: a measure needs at least one atom")
    rows, projections = [], []
    for i, atom in enumerate(atoms):
        at = f"{where}.atoms[{i}]"
        rows.append([_field(atom, name, kind, at) for name, kind in head])
        proj = matrix_from_doc(_field(atom, "projection", dict, at),
                               f"{at}.projection")
        if proj.dim != dim:
            raise ParseError(f"{at}: projection dimension "
                             f"{proj.dim} does not match {dim}")
        projections.append(proj.array)
    return dim, list(zip(*rows)), tuple(projections)


def pvm_to_doc(e: SpectralMeasure) -> dict:
    atoms = [{"point": [point.real, point.imag],
              "projection": matrix_to_doc(e.projection(i))}
             for i, point in enumerate(e.points.tolist())]
    doc = {"dim": e.dim, "of": e.of}
    if e.cluster is not None:  # a default measure keeps its bytes
        doc["cluster"] = e.cluster
    doc["atoms"] = atoms
    return doc


def pvm_from_doc(doc: dict, where: str = "pvm") -> SpectralMeasure:
    of = _field(doc, "of", str, where)
    if of not in OPERATORS:
        raise ParseError(f"{where}: field 'of' must be T, A or B, got {of!r}")
    cluster = _field(doc, "cluster", float, where) if "cluster" in doc \
        else None
    dim, (points,), projections = _read_atoms(doc, where,
                                              (("point", complex),))
    try:
        return SpectralMeasure(dim, np.array(points, dtype=np.complex128),
                               projections=projections, of=of,
                               cluster=cluster)
    except ValueError as exc:  # the radius: of A or B, or not positive
        raise ParseError(f"{where}: {exc}") from exc


def write_pvm(e: SpectralMeasure, path: str):
    write_json(pvm_to_doc(e), path)


def read_pvm(path: str) -> SpectralMeasure:
    return pvm_from_doc(read_json(path), where=os.path.basename(path))


def product_to_doc(prod: ProductMeasure) -> dict:
    pairs = zip(prod.t_points.tolist(), prod.w_points.tolist())
    atoms = [{"t": t, "w": [w.real, w.imag],
              "projection": matrix_to_doc(prod.projection(i))}
             for i, (t, w) in enumerate(pairs)]
    return {"dim": prod.dim, "atoms": atoms}


def product_from_doc(doc: dict, where: str = "product") -> ProductMeasure:
    dim, (t_points, w_points), projections = _read_atoms(
        doc, where, (("t", float), ("w", complex)))
    return ProductMeasure(dim, np.array(t_points, dtype=np.float64),
                          np.array(w_points, dtype=np.complex128),
                          projections=projections)


def report_to_doc(report: VerificationReport) -> dict:
    return report.to_json_dict()


def report_from_doc(doc: dict, where: str = "report") -> VerificationReport:
    for key in ("residuals", "pass", "tolerances"):
        block = _field(doc, key, dict, where)
        for name, value in block.items():
            if key == "pass":
                if not isinstance(value, bool):
                    raise ParseError(f"{where}.pass.{name}: expected a boolean")
            else:
                _double(value, f"{where}.{key}.{name}")
    try:
        return VerificationReport._from_json_dict(doc)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def write_report(report: VerificationReport, path: str):
    write_json(report_to_doc(report), path)


def read_report(path: str) -> VerificationReport:
    return report_from_doc(read_json(path), where=os.path.basename(path))


def decomposition_to_doc(t: OperatorMatrix | None, d: Decomposition,
                         report: VerificationReport | None = None) -> dict:
    doc = {}
    if t is not None:
        doc["t"] = matrix_to_doc(t)
    doc["a"] = matrix_to_doc(d.a)
    doc["b"] = matrix_to_doc(d.b)
    doc["source_norm"] = float(d.source_norm)
    if report is not None:
        doc["report"] = report_to_doc(report)
    return doc


def _pair_from_doc(doc: dict, where: str) -> Decomposition:
    """The pair of a decomposition document, its ``t`` left unread."""
    a = matrix_from_doc(_field(doc, "a", dict, where), f"{where}.a")
    b = matrix_from_doc(_field(doc, "b", dict, where), f"{where}.b")
    return Decomposition(a, b, _field(doc, "source_norm", float, where))


def decomposition_from_doc(doc: dict, where: str = "decomposition"):
    d = _pair_from_doc(doc, where)
    t = matrix_from_doc(doc["t"], f"{where}.t") if "t" in doc else None
    return t, d


def write_decomposition(t: OperatorMatrix | None, d: Decomposition, path: str,
                        report: VerificationReport | None = None):
    write_json(decomposition_to_doc(t, d, report), path)


def read_decomposition(path: str):
    return decomposition_from_doc(read_json(path),
                                  where=os.path.basename(path))
