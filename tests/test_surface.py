"""The public surface is pinned: adding or removing a name is a deliberate edit."""

import argparse
import dataclasses
import inspect

import pytest

import spectral_forge
from spectral_forge import (cli, decomposition, errors, linalg, measures,
                            pipeline, product)
from spectral_forge.gallery import KINDS, OperatorSpec

PACKAGE = [
    "__version__",
    "BadSpec", "DimensionMismatch", "FileError", "NoConvergence",
    "NonFiniteValue", "NotCommuting", "NotHermitian", "NotNormal",
    "ParseError", "ScaleLimit", "SpectralForgeError",
    "OperatorMatrix", "EigenSystem", "Tolerances",
    "frobenius", "is_hermitian", "is_normal",
    "hermitian_eig", "normal_eig", "op_norm_2",
    "cluster_points",
    "Decomposition", "decompose", "verify", "norm_bounds",
    "SpectralMeasure", "pvm_from_normal", "pvm_integrate", "pvm_validate",
    "ProductMeasure", "commute_check", "product_measure",
    "product_validate", "marginal_residuals", "fubini_check",
    "pushforward",
    "PipelineResult", "spectral_theorem",
    "OperatorSpec", "generate", "KINDS",
    "read_matrix", "write_matrix", "read_pvm", "write_pvm",
    "read_decomposition", "write_decomposition",
    "read_report", "write_report",
    "VerificationReport",
]

ERRORS = [
    "SpectralForgeError", "DimensionMismatch", "NonFiniteValue",
    "NotHermitian", "NotNormal", "NoConvergence", "NotCommuting",
    "ScaleLimit", "BadSpec", "FileError", "ParseError",
]


@pytest.mark.parametrize("module, names", [
    (spectral_forge, PACKAGE), (errors, ERRORS),
], ids=["package", "errors"])
def test_all_is_pinned_and_resolves(module, names):
    assert module.__all__ == names
    for name in names:
        assert getattr(module, name) is not None


@pytest.mark.parametrize("module, name", [
    ("spectral_forge.product", "inverse_weight"),
    ("spectral_forge.errors", "SingularWeightWarning"),
    ("spectral_forge.pipeline", "cross_check"),
    ("spectral_forge.linalg", "adjoint"),
    ("spectral_forge.pipeline", "pipeline_tolerance"),
    ("spectral_forge.pipeline", "SINGULAR_MARGIN"),
    ("spectral_forge.linalg", "_norm_in_frame"),
    ("spectral_forge.product", "PRUNE_FACTOR"),
    ("spectral_forge.linalg", "DEFAULT_TOLERANCES"),
    ("spectral_forge.linalg", "_resolve"),
    ("spectral_forge.decomposition", "_bounded_pair"),
    ("spectral_forge.measures", "_measure_in_frame"),
    ("spectral_forge.io", "_check_utf8"),
])
def test_removed_names_cannot_be_imported(module, name):
    for where in ("spectral_forge", module):
        with pytest.raises(ImportError):
            exec(f"from {where} import {name}", {})


def test_removed_entry_points_are_gone():
    assert "from_file" not in KINDS
    assert "path" not in inspect.signature(OperatorSpec).parameters
    assert not hasattr(measures.SpectralMeasure, "atoms")
    assert not hasattr(product.ProductMeasure, "atoms")
    # the route reads its product off E_B's frame; product_measure stays
    # the public product of two arbitrary measures
    assert not hasattr(pipeline, "product_measure")
    # io.report_from_doc is the one reader of a report document
    assert not hasattr(spectral_forge.VerificationReport, "from_json_dict")
    for kernel in (linalg._jacobi_hermitian, linalg._jacobi_one_sided):
        assert "rotation_budget" not in inspect.signature(kernel).parameters
    assert "relative" not in inspect.signature(linalg._clusters).parameters
    # the measure's label picks its rule: no flag beside it
    for rule in (linalg._clusters, linalg._reach):
        assert "own" not in inspect.signature(rule).parameters
    assert list(inspect.signature(linalg._refuse_past_scale_limit).parameters
                ) == ["m"]
    # OperatorMatrix is a checked, frozen matrix and carries no algebra
    for name in ("identity", "zeros", "adjoint", "_check_dim", "__matmul__",
                 "__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
        assert not hasattr(linalg.OperatorMatrix, name), name


def test_absolute_floor_is_a_constant_not_a_knob():
    # linalg.ATOL is read where it is used: nothing carries it
    for kernel in (linalg._jacobi_hermitian, linalg._jacobi_one_sided):
        assert list(inspect.signature(kernel).parameters) == ["matrix"]
    assert list(inspect.signature(linalg.op_norm_2).parameters) == ["m"]
    assert list(inspect.signature(decomposition.norm_bounds).parameters
                ) == ["d"]
    assert "tol" not in inspect.signature(product._intersection).parameters


# Routines that join no atom of T read no Tolerances: their bounds come
# from linalg.rel and linalg.ATOL alone.
WITHOUT_TOL = [
    linalg.is_hermitian, linalg.is_normal, linalg.hermitian_eig,
    linalg.normal_eig, linalg._normal_eig, decomposition.decompose,
    decomposition.verify, product.commute_check,
    product.product_measure, product.product_validate, product._pairs,
    product._commute_threshold, measures._store_checks,
    measures._reconstruction_check, pipeline._labelled,
    pipeline._match_measures, measures.pvm_validate,
]
# Routines that join T's atoms: a Tolerances stops at them.
WITH_TOL = [
    measures.pvm_from_normal, product.pushforward, pipeline.spectral_theorem,
]
# The private rule they share reads the radius itself, a float.
WITH_CLUSTER = [measures._merged, linalg._clusters, linalg._reach]


def test_relative_tolerance_is_a_constant_not_a_knob():
    # linalg.rel(n) = linalg.REL n is read where it is used; a Tolerances
    # holds T's joining radius and nothing else
    fields = [f.name for f in dataclasses.fields(linalg.Tolerances)]
    assert fields == ["cluster"]
    with pytest.raises(TypeError):
        linalg.Tolerances(rtol=1e-9)
    assert linalg.REL == 1e-10 and linalg.rel(7) == 1e-10 * 7
    for routine in WITHOUT_TOL:
        assert "tol" not in inspect.signature(routine).parameters, routine
    for routine in WITH_TOL:
        assert "tol" in inspect.signature(routine).parameters, routine
    for routine in WITH_CLUSTER:
        params = inspect.signature(routine).parameters
        assert "cluster" in params and "tol" not in params, routine
    # a measure carries the radius it joined by, and is validated by it
    assert list(inspect.signature(measures.pvm_validate).parameters) == ["e"]
    assert "cluster" in [f.name for f in
                         dataclasses.fields(measures.SpectralMeasure)]


def test_cli_options_are_pinned():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in p._actions for o in a.option_strings
                        if o.startswith("--"))
           for name, p in sub.choices.items()}
    solve = ["--cluster", "--help", "--input"]
    assert got == {
        "decompose": ["--emit", "--help", "--input", "--output"],
        "spectrum": sorted(solve + ["--emit", "--output"]),
        "pipeline": sorted(solve + ["--cross-check", "--emit",
                                    "--force-scale", "--output"]),
        "verify": ["--decomposition", "--dir", "--help", "--input",
                   "--output", "--pvm"],
        "gen": ["--dim", "--help", "--kind", "--output", "--scale", "--seed"],
    }
