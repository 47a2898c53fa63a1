"""Reports are built from (name, value, bound[, passed]) records.

Every checker hands its records to ``VerificationReport.from_checks``
(or appends them with ``extended``), so the three maps of a report name
the same checks in the same order.  An AST scan keeps direct
construction inside ``report.py``.
"""

import ast
import pathlib

import pytest

import spectral_forge
from spectral_forge import io, linalg
from spectral_forge.decomposition import decompose, verify
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import OperatorMatrix, Tolerances
from spectral_forge.measures import pvm_validate
from spectral_forge.pipeline import spectral_theorem
from spectral_forge.product import product_validate
from spectral_forge.report import VerificationReport

PACKAGE = pathlib.Path(spectral_forge.__file__).parent

STORE = ["idempotency", "hermitian_defect", "orthogonality", "completeness",
         "rank_deficit"]
DECOMPOSITION = ["injectivity_margin", "reconstruction", "commutator",
                 "claim_product", "adjoint_identity", "hermitian_defect_a",
                 "normality_defect_b"]
CROSS = ["cross_point_gap", "cross_projection_gap", "cross_unmatched"]
THEOREM = ["atom_count", "reconstruction", "e2_support_excess"]


def _constructions(source: str) -> list[int]:
    """Lines that call ``VerificationReport(...)`` directly."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if ((isinstance(func, ast.Name) and func.id == "VerificationReport")
                    or (isinstance(func, ast.Attribute)
                        and func.attr == "VerificationReport")):
                found.append(node.lineno)
    return found


def test_scanner_flags_direct_construction():
    source = ("r = VerificationReport(res, ok, tols)\n"
              "s = report.VerificationReport({}, {}, {})\n"
              "u = VerificationReport.from_checks([('x', 1.0, 2.0)])\n"
              "v = u.extended([])\n")
    assert _constructions(source) == [1, 2]


def test_reports_are_constructed_only_in_report_module():
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(p.name == "report.py" for p in modules)
    bad = [f"{path.name}:{line}" for path in modules if path.name != "report.py"
           for line in _constructions(path.read_text(encoding="utf-8"))]
    assert not bad, "build reports with from_checks or extended: " + ", ".join(bad)


def test_records_give_aligned_maps():
    rep = VerificationReport.from_checks([
        ("small", 1.0, 2.0), ("large", 3.0, 2.0), ("margin", 1.0, 0.5, True)])
    assert rep.passed == {"small": True, "large": False, "margin": True}
    assert rep.tolerances == {"small": 2.0, "large": 2.0, "margin": 0.5}
    assert rep.failed == ["large"]
    assert not rep.all_passed
    more = rep.extended([("extra", 0.0, 0.0)])
    assert list(more.residuals) == ["small", "large", "margin", "extra"]
    assert more.passed["margin"] and more.passed["extra"]
    assert list(rep.residuals) == ["small", "large", "margin"]


@pytest.mark.parametrize("residuals, passed, tolerances", [
    ({"reconstruction": 5.0}, {}, {}),
    ({"a": 1.0, "b": 1.0}, {"b": True, "a": True}, {"a": 1.0, "b": 1.0}),
    ({"a": 1.0}, {"a": True}, {"a": 1.0, "b": 1.0}),
])
def test_maps_naming_different_checks_are_rejected(residuals, passed,
                                                   tolerances):
    with pytest.raises(ValueError, match="same checks in the same order"):
        VerificationReport(residuals, passed, tolerances)


def test_two_records_of_one_name_are_rejected():
    # a second record of one name is refused, never written over the
    # first record's slot, whether it comes in one list or is appended
    base = [("small", 1.0, 2.0), ("large", 3.0, 2.0)]
    with pytest.raises(ValueError, match="two checks named 'small'"):
        VerificationReport.from_checks(base + [("small", 9.0, 0.0)])
    with pytest.raises(ValueError, match="two checks named 'small'"):
        VerificationReport.from_checks(base).extended([("small", 0.0, 1.0)])


@pytest.fixture(scope="module")
def runs():
    t = generate(OperatorSpec("random_normal", dim=6, scale=2.0, seed=21))
    h = generate(OperatorSpec("random_hermitian", dim=5, scale=1.0, seed=22))
    # Hermitian to the bit, so verify takes its Hermitian branch under
    # any relative tolerance
    h = OperatorMatrix((h.array + h.array.conj().T) / 2.0)
    return t, h, decompose(h), spectral_theorem(t, direct_check=True)


def _dense(e):
    return io.pvm_from_doc(io.pvm_to_doc(e))


def _bounds(check):
    """``check`` run at the default bounds, or when failing under
    ``rel(n) = 1e-30 n``, which no residual clears; the artifacts it
    checks are built before the patch, whose normality test would refuse
    them."""
    def run(t, h, dh, r, failing):
        with pytest.MonkeyPatch.context() as patch:
            if failing:
                patch.setattr(linalg, "REL", 1e-30)
            return check(t, h, dh, r)
    return run


def _theorem(t, h, dh, r, failing):
    # A clustering radius of 1 merges distinct eigenvalues of T, so the
    # pipeline's own report fails where the bounds alone would not.
    if not failing:
        return r.report
    return spectral_theorem(t, Tolerances(cluster=1.0), direct_check=True).report


CHECKERS = {
    "verify": (_bounds(lambda t, h, dh, r: verify(t, r.decomposition)),
               DECOMPOSITION),
    "verify_hermitian": (_bounds(lambda t, h, dh, r: verify(h, dh)),
                         DECOMPOSITION + ["hermitian_defect_b"]),
    "pvm_validate_factored": (_bounds(lambda t, h, dh, r: pvm_validate(r.e2)),
                              STORE + ["min_point_gap"]),
    "pvm_validate_dense": (
        _bounds(lambda t, h, dh, r: pvm_validate(_dense(r.spectral_measure))),
        STORE + ["min_point_gap"]),
    "product_validate_rectangle": (
        _bounds(lambda t, h, dh, r: product_validate(r.product)),
        STORE + ["rectangle"]),
    "product_validate_dense": (
        _bounds(lambda t, h, dh, r: product_validate(
            io.product_from_doc(io.product_to_doc(r.product)))),
        STORE),
    "spectral_theorem": (_theorem, THEOREM + CROSS),
}


@pytest.mark.parametrize("failing", [False, True], ids=["default", "failing"])
@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_every_checker_reports_aligned_maps(runs, checker, failing):
    build, keys = CHECKERS[checker]
    rep = build(*runs, failing)
    assert list(rep.residuals) == keys
    assert list(rep.passed) == keys
    assert list(rep.tolerances) == keys
    assert rep.failed == [k for k in keys if not rep.passed[k]]
    assert rep.all_passed == (not rep.failed)
    assert rep.all_passed != failing, rep.failed
