"""JSON persistence for matrices, measures, and reports.

All floating point numbers are written with 17 significant digits so a
write/read cycle reproduces every double bit for bit, and documents are
emitted with a fixed key order so identical inputs give byte-identical
files.  Complex numbers are [real, imaginary] pairs; matrices store
row-major entry lists under their dimension.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .decomposition import Decomposition
from .errors import FileError, NonFiniteValue, ParseError
from .linalg import OperatorMatrix
from .measures import SpectralMeasure
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


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteValue("cannot serialize a non-finite number")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def dumps(doc) -> str:
    """Serialize with deterministic layout and 17-digit floats."""
    pieces: list[str] = []
    _emit(doc, pieces)
    return "".join(pieces) + "\n"


def _emit(node, out: list[str]):
    if isinstance(node, dict):
        out.append("{")
        for i, (key, value) in enumerate(node.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(value, out)
        out.append("}")
    elif isinstance(node, (list, tuple)):
        out.append("[")
        for i, value in enumerate(node):
            if i:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    elif isinstance(node, bool):
        out.append("true" if node else "false")
    elif isinstance(node, (int, np.integer)):
        out.append(str(int(node)))
    elif isinstance(node, (float, np.floating)):
        out.append(_fmt_float(float(node)))
    elif isinstance(node, str):
        out.append(json.dumps(node))
    elif node is None:
        out.append("null")
    else:
        raise ParseError(f"cannot serialize value of type {type(node).__name__}")


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from exc


def write_json(doc: dict, path: str):
    _write_text(path, dumps(doc))


def read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return doc


def _field(doc: dict, name: str, kind, where: str):
    if name not in doc:
        raise ParseError(f"{where}: missing field {name!r}")
    value = doc[name]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ParseError(f"{where}: field {name!r} must be a number")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f"{where}: field {name!r} must be an integer")
        return value
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {name!r} must be {kind.__name__}")
    return value


def _complex_from(pair, where: str) -> complex:
    if (not isinstance(pair, list) or len(pair) != 2 or
            any(isinstance(v, bool) or not isinstance(v, (int, float))
                for v in pair)):
        raise ParseError(f"{where}: expected [real, imaginary] pair")
    value = complex(float(pair[0]), float(pair[1]))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"{where}: non-finite entry")
    return value


def matrix_to_doc(m: OperatorMatrix) -> dict:
    entries = [[float(z.real), float(z.imag)] for z in m.array.ravel()]
    return {"dim": m.dim, "entries": entries}


def matrix_from_doc(doc: dict, where: str = "matrix") -> OperatorMatrix:
    dim = _field(doc, "dim", int, where)
    if dim < 1:
        raise ParseError(f"{where}: dim must be at least 1")
    entries = _field(doc, "entries", list, where)
    if len(entries) != dim * dim:
        raise ParseError(f"{where}: expected {dim * dim} entries, "
                         f"got {len(entries)}")
    values = [_complex_from(pair, f"{where}.entries[{i}]")
              for i, pair in enumerate(entries)]
    return OperatorMatrix(np.array(values, dtype=np.complex128).reshape(dim, dim))


def write_matrix(m: OperatorMatrix, path: str):
    _write_text(path, dumps(matrix_to_doc(m)))


def read_matrix(path: str) -> OperatorMatrix:
    return matrix_from_doc(read_json(path), where=os.path.basename(path))


def pvm_to_doc(e: SpectralMeasure) -> dict:
    atoms = []
    for i in range(e.num_atoms):
        point = complex(e.points[i])
        atoms.append({
            "point": [point.real, point.imag],
            "projection": matrix_to_doc(e.projection(i)),
            "rank": int(e.ranks[i]),
        })
    return {"dim": e.dim, "atoms": atoms, "support_radius": e.support_radius}


def pvm_from_doc(doc: dict, where: str = "pvm") -> SpectralMeasure:
    dim = _field(doc, "dim", int, where)
    atoms = _field(doc, "atoms", list, where)
    if not atoms:
        raise ParseError(f"{where}: a measure needs at least one atom")
    points, projections = [], []
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise ParseError(f"{where}.atoms[{i}]: expected an object")
        points.append(_complex_from(
            _field(atom, "point", list, f"{where}.atoms[{i}]"),
            f"{where}.atoms[{i}].point"))
        proj = matrix_from_doc(
            _field(atom, "projection", dict, f"{where}.atoms[{i}]"),
            f"{where}.atoms[{i}].projection")
        if proj.dim != dim:
            raise ParseError(f"{where}.atoms[{i}]: projection dimension "
                             f"{proj.dim} does not match {dim}")
        _field(atom, "rank", int, f"{where}.atoms[{i}]")
        projections.append(proj.array)
    return SpectralMeasure(dim, np.array(points, dtype=np.complex128),
                           projections=tuple(projections))


def write_pvm(e: SpectralMeasure, path: str):
    _write_text(path, dumps(pvm_to_doc(e)))


def read_pvm(path: str) -> SpectralMeasure:
    return pvm_from_doc(read_json(path), where=os.path.basename(path))


def product_to_doc(prod: ProductMeasure) -> dict:
    atoms = []
    for i in range(prod.num_atoms):
        w = complex(prod.w_points[i])
        atoms.append({
            "t": float(prod.t_points[i]),
            "w": [w.real, w.imag],
            "projection": matrix_to_doc(prod.projection(i)),
        })
    return {"dim": prod.dim, "atoms": atoms}


def product_from_doc(doc: dict, where: str = "product") -> ProductMeasure:
    dim = _field(doc, "dim", int, where)
    atoms = _field(doc, "atoms", list, where)
    if not atoms:
        raise ParseError(f"{where}: a measure needs at least one atom")
    t_points, w_points, projections = [], [], []
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise ParseError(f"{where}.atoms[{i}]: expected an object")
        t_points.append(_field(atom, "t", float, f"{where}.atoms[{i}]"))
        w_points.append(_complex_from(
            _field(atom, "w", list, f"{where}.atoms[{i}]"),
            f"{where}.atoms[{i}].w"))
        proj = matrix_from_doc(
            _field(atom, "projection", dict, f"{where}.atoms[{i}]"),
            f"{where}.atoms[{i}].projection")
        if proj.dim != dim:
            raise ParseError(f"{where}.atoms[{i}]: projection dimension "
                             f"{proj.dim} does not match {dim}")
        projections.append(proj.array)
    return ProductMeasure(dim, np.array(t_points, dtype=np.float64),
                          np.array(w_points, dtype=np.complex128),
                          projections=tuple(projections))


def report_to_doc(report: VerificationReport) -> dict:
    return report.to_json_dict()


def report_from_doc(doc: dict, where: str = "report") -> VerificationReport:
    for key in ("residuals", "pass", "tolerances"):
        block = _field(doc, key, dict, where)
        for name, value in block.items():
            if key == "pass":
                if not isinstance(value, bool):
                    raise ParseError(f"{where}.pass.{name}: expected a boolean")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParseError(f"{where}.{key}.{name}: expected a number")
    try:
        return VerificationReport.from_json_dict(doc)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def write_report(report: VerificationReport, path: str):
    _write_text(path, dumps(report_to_doc(report)))


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


def decomposition_from_doc(doc: dict, where: str = "decomposition"):
    a = matrix_from_doc(_field(doc, "a", dict, where), f"{where}.a")
    b = matrix_from_doc(_field(doc, "b", dict, where), f"{where}.b")
    norm = _field(doc, "source_norm", float, where)
    t = None
    if "t" in doc:
        t = matrix_from_doc(doc["t"], f"{where}.t")
    return t, Decomposition(a, b, norm)


def write_decomposition(t: OperatorMatrix | None, d: Decomposition, path: str,
                        report: VerificationReport | None = None):
    _write_text(path, dumps(decomposition_to_doc(t, d, report)))


def read_decomposition(path: str):
    return decomposition_from_doc(read_json(path),
                                  where=os.path.basename(path))
