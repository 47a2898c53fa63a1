"""Command line surface.

Five subcommands cover the toolkit: ``gen`` writes gallery operators,
``decompose`` computes and checks the bounded pair, ``spectrum``
diagonalizes into a projection-valued measure, ``pipeline`` runs the
full reconstruction, and ``verify`` re-checks stored artifacts.

Exit codes: 0 all checks passed, 1 a verification check failed,
2 usage or file/parse problem, 3 numerical failure (non-normal input,
no convergence, non-commuting measures, conditioning refusal).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io
from .decomposition import RECONSTRUCTION_FACTOR, decompose, verify
from .errors import (
    BadSpec,
    DimensionMismatch,
    FileError,
    ParseError,
    SpectralForgeError,
)
from .gallery import KINDS, OperatorSpec, generate
from .linalg import OperatorMatrix, Tolerances, frobenius
from .measures import pvm_from_normal, pvm_integrate, pvm_validate
from .pipeline import spectral_theorem
from .product import product_validate
from .report import VerificationReport

__all__ = ["main"]

_USAGE_ERRORS = (ParseError, BadSpec, FileError, DimensionMismatch)


def _tolerances(args) -> Tolerances:
    rtol = args.tol_rel
    if rtol is None:
        env = os.environ.get("SPECTRAL_FORGE_TOL")
        if env is not None:
            try:
                rtol = float(env)
            except ValueError:
                raise ParseError(
                    f"SPECTRAL_FORGE_TOL must be a number, got {env!r}")
    kwargs = {}
    if rtol is not None:
        kwargs["rtol"] = rtol
    if args.tol_abs is not None:
        kwargs["atol"] = args.tol_abs
    if args.cluster is not None:
        kwargs["cluster"] = args.cluster
    try:
        return Tolerances(**kwargs)
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
        sys.stdout.write(io.dumps(doc))


def _summarize(label: str, report: VerificationReport) -> int:
    """Print the report's one-line verdict and return the exit code."""
    if report.failed:
        print(f"{label}: FAIL ({', '.join(report.failed)})", file=sys.stderr)
        return 1
    print(f"{label}: all {len(report.passed)} checks passed", file=sys.stderr)
    return 0


def _cmd_decompose(args) -> int:
    tol = _tolerances(args)
    t = _read_input(args)
    d = decompose(t, tol)
    report = verify(t, d, tol)
    if args.emit == "report":
        doc = io.report_to_doc(report)
    else:
        doc = io.decomposition_to_doc(t, d,
                                      None if args.emit == "measure" else report)
    _deliver(doc, args)
    return _summarize("decompose", report)


def _pvm_report(t: OperatorMatrix, e, tol: Tolerances) -> VerificationReport:
    return pvm_validate(e, tol).extended([(
        "reconstruction", frobenius(pvm_integrate(lambda z: z, e) - t),
        RECONSTRUCTION_FACTOR * tol.rel(t.dim) * (1.0 + frobenius(t)))])


def _cmd_spectrum(args) -> int:
    tol = _tolerances(args)
    t = _read_input(args)
    e = pvm_from_normal(t, tol)
    report = _pvm_report(t, e, tol)
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


def _decomposition_check(doc: dict, name: str, tol: Tolerances,
                         source: OperatorMatrix | None
                         ) -> VerificationReport | None:
    """Verify a stored decomposition against its own T, else ``source``.

    Returns None when there is neither.
    """
    t, d = io.decomposition_from_doc(doc, where=name)
    t = t if t is not None else source
    return None if t is None else verify(t, d, tol)


def _measure_check(doc: dict, name: str, tol: Tolerances,
                   source: OperatorMatrix | None) -> VerificationReport:
    """Validate a stored measure, or a product measure when atoms carry t.

    A measure is also held to reconstruction against ``source`` when
    their dimensions match.
    """
    atoms = doc.get("atoms")
    if (isinstance(atoms, list) and atoms and isinstance(atoms[0], dict)
            and "t" in atoms[0]):
        return product_validate(io.product_from_doc(doc, where=name), tol)
    e = io.pvm_from_doc(doc, where=name)
    if source is not None and source.dim == e.dim:
        return _pvm_report(source, e, tol)
    return pvm_validate(e, tol)


def _status(kind: str, failed: list[str]) -> tuple[str, bool]:
    return (kind + " " + ("FAIL " + ",".join(failed) if failed else "pass"),
            not failed)


def _verify_one(path: str, tol: Tolerances,
                source: OperatorMatrix | None) -> tuple[str, bool | None]:
    """Classify one artifact file and re-check it.

    Returns a status string and pass/fail (None when nothing in the
    file is checkable).
    """
    doc = io.read_json(path)
    name = os.path.basename(path)
    if "a" in doc and "b" in doc:
        report = _decomposition_check(doc, name, tol, source)
        if report is None:
            return "skipped (no source operator; pass --input)", None
        return _status("decomposition", report.failed)
    if "atoms" in doc:
        return _status("measure", _measure_check(doc, name, tol, source).failed)
    if isinstance(doc.get("measure"), dict):
        # --emit all bundle: re-check every part that carries an
        # invariant.  The embedded source operator, when present, is the
        # reconstruction target of the decomposition and the measures of T.
        src = source
        if isinstance(doc.get("t"), dict):
            src = io.matrix_from_doc(doc["t"], where=name)
        reports = {}
        if isinstance(doc.get("decomposition"), dict):
            reports["decomposition"] = _decomposition_check(
                doc["decomposition"], name, tol, src)
        for key in ("e1", "e2", "product", "measure", "direct"):
            if isinstance(doc.get(key), dict):
                target = src if key in ("measure", "direct") else None
                reports[key] = _measure_check(doc[key], name, tol, target)
        checked = [k for k, r in reports.items() if r is not None]
        return _status("bundle(" + ",".join(checked) + ")",
                       [k for k in checked if reports[k].failed])
    if "entries" in doc:
        return "skipped (operator matrix)", None
    if "residuals" in doc:
        return "skipped (report artifact)", None
    raise ParseError(f"{name}: unrecognized artifact layout")


def _cmd_verify(args) -> int:
    tol = _tolerances(args)
    source = io.read_matrix(args.input) if args.input else None
    targets: list[str] = []
    if args.dir:
        try:
            names = sorted(os.listdir(args.dir))
        except OSError as exc:
            raise FileError(f"cannot list {args.dir}: {exc}")
        targets.extend(os.path.join(args.dir, n) for n in names
                       if n.endswith(".json"))
    if args.decomposition:
        targets.append(args.decomposition)
    if args.pvm:
        targets.append(args.pvm)
    if not targets:
        raise ParseError(
            "verify needs --decomposition, --pvm, or --dir")
    worst = 0
    checked = False
    last_report_doc = None
    for path in targets:
        if args.dir and path not in (args.decomposition, args.pvm):
            status, ok = _verify_one(path, tol, source)
            print(f"{os.path.basename(path)}: {status}")
            if ok is not None:
                checked = True
                if not ok:
                    worst = 1
            continue
        # Explicit targets print the full residual table; of an --emit all
        # bundle, the part the flag names, against the bundle's T if stored.
        doc = io.read_json(path)
        name = os.path.basename(path)
        src = source
        if "atoms" not in doc and isinstance(doc.get("measure"), dict):
            if isinstance(doc.get("t"), dict):
                src = io.matrix_from_doc(doc["t"], where=name)
            doc = doc.get("decomposition" if path == args.decomposition
                          else "measure", {})
        if path == args.decomposition:
            report = _decomposition_check(doc, name, tol, src)
            if report is None:
                raise ParseError(f"{name}: stores no source operator; "
                                 "pass --input FILE")
        else:
            report = _measure_check(doc, name, tol, src)
        checked = True
        print(name)
        for key, residual in report.residuals.items():
            bound = report.tolerances[key]
            verdict = "pass" if report.passed[key] else "FAIL"
            print(f"  {key:<24} value {residual:.6e}  bound {bound:.6e}  {verdict}")
        if not report.all_passed:
            worst = 1
        last_report_doc = io.report_to_doc(report)
    if not checked and worst == 0:
        print("nothing checkable found", file=sys.stderr)
    if args.output and last_report_doc is not None:
        io.write_json(last_report_doc, args.output)
    return worst


def _cmd_gen(args) -> int:
    if not args.kind:
        raise ParseError("gen needs --kind")
    spec = OperatorSpec(kind=args.kind, dim=args.dim or 0,
                        scale=args.scale, seed=args.seed, path=args.path)
    m = generate(spec)
    _deliver(io.matrix_to_doc(m), args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    # Shared flags, grouped by the subcommands that read them.
    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--tol-rel", type=float, default=None, metavar="X",
                       help="relative tolerance (default $SPECTRAL_FORGE_TOL"
                            ", else 1e-10 times the dimension)")
    solve.add_argument("--tol-abs", type=float, default=None, metavar="X",
                       help="absolute tolerance floor (default 1e-12)")
    solve.add_argument("--cluster", type=float, default=None, metavar="X",
                       help="eigenvalue clustering radius (default "
                            "1e-8 times (1 + spectral scale))")
    solve.add_argument("--input", metavar="FILE",
                       help="input operator file")
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

    p = sub.add_parser("decompose", parents=[solve, output, emit],
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
                   help="proceed past the conditioning refusal on very "
                        "large norms")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("verify", parents=[solve, output],
                       help="re-check stored artifacts")
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
    p.add_argument("--path", metavar="FILE",
                   help="source file for kind from_file")
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
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpectralForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
