"""Command line surface.

Five subcommands cover the toolkit: ``gen`` writes gallery operators,
``decompose`` computes and checks the bounded pair, ``spectrum``
diagonalizes into a projection-valued measure, ``pipeline`` runs the
full reconstruction, and ``verify`` re-checks stored artifacts, each
mapped to its parts by one classifier and checked part by part.

Exit codes: 0 all checks passed, 1 a verification check failed,
2 usage or file/parse problem, 3 numerical failure (non-normal input,
no convergence, non-commuting measures, conditioning refusal).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io
from .decomposition import decompose, verify
from .errors import (
    BadSpec,
    DimensionMismatch,
    FileError,
    ParseError,
    SpectralForgeError,
)
from .gallery import KINDS, OperatorSpec, generate
from .linalg import OperatorMatrix, Tolerances
from .measures import _reconstruction_check, pvm_from_normal, pvm_validate
from .pipeline import spectral_theorem
from .product import product_validate
from .report import VerificationReport

__all__ = ["main"]

_USAGE_ERRORS = (ParseError, BadSpec, FileError, DimensionMismatch)


def _exit_code(exc: SpectralForgeError) -> int:
    """2 for a usage or file/parse problem, else 3 (numerical)."""
    return 2 if isinstance(exc, _USAGE_ERRORS) else 3


def _tolerances(args) -> Tolerances:
    try:
        return Tolerances(cluster=args.cluster)
    except ValueError as exc:
        raise BadSpec(str(exc))


def _read_input(args) -> OperatorMatrix:
    if not args.input:
        raise ParseError("this command needs --input FILE")
    return io.read_matrix(args.input)


def _deliver(doc: dict, args):
    if args.output:
        io.write_json(doc, args.output)
    else:
        sys.stdout.writelines(io._pieces(doc))


def _summarize(label: str, report: VerificationReport) -> int:
    """Print the report's one-line verdict and return the exit code."""
    if report.failed:
        print(f"{label}: FAIL ({', '.join(report.failed)})", file=sys.stderr)
        return 1
    print(f"{label}: all {len(report.passed)} checks passed", file=sys.stderr)
    return 0


def _cmd_decompose(args) -> int:
    t = _read_input(args)
    d = decompose(t)
    report = verify(t, d)
    if args.emit == "report":
        doc = io.report_to_doc(report)
    else:
        doc = io.decomposition_to_doc(t, d,
                                      None if args.emit == "measure" else report)
    _deliver(doc, args)
    return _summarize("decompose", report)


def _pvm_report(t: OperatorMatrix, e) -> VerificationReport:
    return pvm_validate(e).extended([_reconstruction_check(t, e)])


def _cmd_spectrum(args) -> int:
    tol = _tolerances(args)
    t = _read_input(args)
    e = pvm_from_normal(t, tol)
    report = _pvm_report(t, e)
    if args.emit == "measure":
        doc = io.pvm_to_doc(e)
    elif args.emit == "report":
        doc = io.report_to_doc(report)
    else:
        doc = {"measure": io.pvm_to_doc(e), "report": io.report_to_doc(report)}
    _deliver(doc, args)
    return _summarize(f"spectrum ({e.num_atoms} atoms)", report)


def _cmd_pipeline(args) -> int:
    tol = _tolerances(args)
    t = _read_input(args)
    result = spectral_theorem(t, tol, direct_check=args.cross_check,
                              force_scale=args.force_scale)
    report = result.report
    if args.emit == "measure":
        doc = io.pvm_to_doc(result.spectral_measure)
    elif args.emit == "report":
        doc = io.report_to_doc(report)
    else:
        doc = {
            "t": io.matrix_to_doc(t),
            "decomposition": io.decomposition_to_doc(None,
                                                     result.decomposition),
            "e1": io.pvm_to_doc(result.e1),
            "e2": io.pvm_to_doc(result.e2),
            "product": io.product_to_doc(result.product),
            "measure": io.pvm_to_doc(result.spectral_measure),
            "report": io.report_to_doc(report),
        }
        if result.direct_measure is not None:
            doc["direct"] = io.pvm_to_doc(result.direct_measure)
    _deliver(doc, args)
    return _summarize(f"pipeline ({result.spectral_measure.num_atoms} atoms)",
                      report)


# Parts of an ``--emit all`` bundle, in the order ``--dir`` reports them.
_BUNDLE_PARTS = ("decomposition", "e1", "e2", "product", "measure", "direct")


def _classify(doc: dict, name: str, source: OperatorMatrix | None
              ) -> tuple[str, dict, list]:
    """Map one artifact document to its checkable parts.

    Returns the document's kind, ``{part: (part document, operator)}``
    and the records the file itself is held to.  The operator is what a
    decomposition and a measure of T are held to: the stored ``t`` of a
    decomposition or bundle (a ParseError if it is no matrix), else
    ``source``.  A stored ``t`` beside ``source`` is the record ``t``:
    how many of its entries differ from ``source`` (all of them across
    dimensions), bound 0.  A matrix or report file is inert: its skip
    message and no parts.
    """
    if "a" in doc and "b" in doc:
        kind, parts = "decomposition", {"decomposition": doc}
    elif "atoms" in doc:
        return "measure", {"measure": (doc, source)}, []
    elif isinstance(doc.get("measure"), dict):
        kind, parts = "bundle", {key: doc[key] for key in _BUNDLE_PARTS
                                 if key in doc}
    elif "entries" in doc:
        return "skipped (operator matrix)", {}, []
    elif "residuals" in doc:
        return "skipped (report artifact)", {}, []
    else:
        raise ParseError(f"{name}: unrecognized artifact layout")
    stored = io.matrix_from_doc(doc["t"], where=f"{name}.t") \
        if "t" in doc else None
    own = [] if stored is None or source is None else [("t", float(
        stored.array.size if stored.dim != source.dim
        else np.count_nonzero(stored.array != source.array)), 0.0)]
    operator = source if stored is None else stored
    return kind, {key: (part, operator) for key, part in parts.items()}, own


def _check(part: str, doc, operator: OperatorMatrix | None, name: str
           ) -> VerificationReport | None:
    """Re-check one part of an artifact; None when nothing can hold it.

    A decomposition is verified against ``operator`` (None when there
    is none).  Atoms carrying ``t`` make a product measure.  A measure
    whose ``of`` is T is also held to reconstruction against
    ``operator``, if any, of its dimension or a DimensionMismatch;
    measures of A and B, and products, are only validated.  A measure is
    judged by the joining radius it carries.
    """
    if part == "decomposition":
        d = io._pair_from_doc(doc, where=name)
        return None if operator is None else verify(operator, d)
    atoms = doc.get("atoms") if isinstance(doc, dict) else None
    if (isinstance(atoms, list) and atoms and isinstance(atoms[0], dict)
            and "t" in atoms[0]):
        return product_validate(io.product_from_doc(doc, where=name))
    e = io.pvm_from_doc(doc, where=name)
    if e.of == "T" and operator is not None:
        return _pvm_report(operator, e)
    return pvm_validate(e)


def _explicit_report(parts: dict, part: str, name: str) -> VerificationReport:
    """The report of the part an explicit flag names, or a ParseError."""
    if part not in parts:
        raise ParseError(f"{name}: holds no {part} to check")
    report = _check(part, *parts[part], name)
    if report is None:
        raise ParseError(f"{name}: stores no source operator; "
                         "pass --input FILE")
    return report


def _cmd_verify(args) -> int:
    """Re-check every target; a target that fails, fails alone.

    A ``--dir`` file and an explicit flag's file take one path: read,
    classify, check.  A SpectralForgeError on the way fails that target
    alone, on stderr, and the targets after it are still checked; the
    exit code is the worst over all.  A ``--dir`` file gets a status
    line; an explicit flag its part's table and ``--output``, if checked.
    """
    if args.output and bool(args.decomposition) == bool(args.pvm):
        raise ParseError("verify --output writes the report of one target: "
                         "pass exactly one of --decomposition or --pvm")
    source = io.read_matrix(args.input) if args.input else None
    targets = []  # (path, the part an explicit flag names, else None)
    if args.dir:
        try:
            names = sorted(os.listdir(args.dir))
        except OSError as exc:
            raise FileError(f"cannot list {args.dir}: {exc}")
        targets = [(os.path.join(args.dir, n), None) for n in names
                   if n.endswith(".json")]
    targets += [(path, part) for path, part in
                ((args.decomposition, "decomposition"), (args.pvm, "measure"))
                if path]
    if not (args.dir or args.decomposition or args.pvm):
        raise ParseError("verify needs --decomposition, --pvm, or --dir")
    worst, skipped = 0, 0
    for path, part in targets:
        name = os.path.basename(path)
        reports, raised = {}, {}  # part -> its report; part -> exit code
        try:
            kind, parts, own = _classify(io.read_json(path), name, source)
            if part is not None:
                reports[part] = _explicit_report(parts, part, name)
        except SpectralForgeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if part is None:
                print(f"{name}: FAIL")
            worst = max(worst, _exit_code(exc))
            continue
        # a --dir file's part that raises fails the file, not its other parts
        for key in parts if part is None else ():
            try:
                reports[key] = _check(key, *parts[key], name)
            except SpectralForgeError as exc:
                print(f"error: {name}: {key}: {exc}", file=sys.stderr)
                raised[key] = _exit_code(exc)
        reports = {key: r for key, r in reports.items() if r is not None}
        if not reports and not raised:
            print(f"{name}: " + ("skipped (no source operator; pass "
                                 "--input)" if parts else kind))
            skipped += 1
            continue
        failed = VerificationReport.from_checks(own).failed  # t leads
        if kind == "bundle":
            done = [key for key in parts if key in reports or key in raised]
            kind = "bundle(" + ",".join(done) + ")"
            failed += [key for key in done
                       if key in raised or reports[key].failed]
        else:
            failed += list(raised) + [c for r in reports.values()
                                      for c in r.failed]
        worst = max(worst, 1 if failed else 0, *raised.values())
        if part is None:
            print(f"{name}: {kind} " + ("FAIL " + ",".join(failed) if failed
                                        else "pass"))
            continue
        report = reports[part].extended(own)
        print(name)
        for key, ok in report.passed.items():
            print(f"  {key:<24} value {report.residuals[key]:.6e}  bound "
                  f"{report.tolerances[key]:.6e}  {'pass' if ok else 'FAIL'}")
        if args.output:
            io.write_json(io.report_to_doc(report), args.output)
    if skipped == len(targets):
        print("nothing checkable found", file=sys.stderr)
    return worst


def _cmd_gen(args) -> int:
    if not args.kind:
        raise ParseError("gen needs --kind")
    spec = OperatorSpec(kind=args.kind, dim=args.dim or 0,
                        scale=args.scale, seed=args.seed)
    try:
        m = generate(spec)
    except MemoryError:
        raise BadSpec(f"dimension {spec.dim} does not fit in memory") from None
    _deliver(io.matrix_to_doc(m), args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    # Shared flags, grouped by the subcommands that read them.
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", metavar="FILE",
                        help="input operator file")
    solve = argparse.ArgumentParser(add_help=False, parents=[source])
    solve.add_argument("--cluster", type=float, default=None, metavar="X",
                       help="absolute radius within which the atoms of T's "
                            "measure join; E_A and E_B keep their own rules "
                            "(default: points join within 1e-8 of their own "
                            "size)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", metavar="FILE",
                        help="write the JSON result here instead of stdout")
    emit = argparse.ArgumentParser(add_help=False)
    emit.add_argument("--emit", choices=("all", "measure", "report"),
                      default="all",
                      help="which part of the result to write")

    parser = argparse.ArgumentParser(
        prog="spectral-forge",
        description="Operator decomposition and spectral measure toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[source, output, emit],
                       help="split a normal operator into its bounded pair")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("spectrum", parents=[solve, output, emit],
                       help="diagonalize into a projection-valued measure")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("pipeline", parents=[solve, output, emit],
                       help="reconstruct the spectral measure through the "
                            "bounded pair")
    p.add_argument("--cross-check", action="store_true",
                   help="also diagonalize directly and compare")
    p.add_argument("--force-scale", action="store_true",
                   help="run past the documented range, which ends at a "
                        "norm of 1e6 (an entry past 2^128 is still "
                        "refused)")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("verify", parents=[source],
                       help="re-check stored artifacts")
    p.add_argument("--output", metavar="FILE",
                   help="also write the report of the one --decomposition "
                        "or --pvm target here")
    p.add_argument("--decomposition", metavar="FILE",
                   help="decomposition bundle to verify")
    p.add_argument("--pvm", metavar="FILE",
                   help="measure file to validate")
    p.add_argument("--dir", metavar="DIR",
                   help="verify every .json artifact in a directory")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", parents=[output],
                       help="write a gallery operator")
    p.add_argument("--kind", choices=KINDS, help="operator family")
    p.add_argument("--seed", type=int, default=None, metavar="N",
                   help="generator seed")
    p.add_argument("--dim", type=int, default=0, metavar="N",
                   help="matrix dimension")
    p.add_argument("--scale", type=float, default=1.0, metavar="X",
                   help="magnitude scale (default 1)")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SpectralForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
