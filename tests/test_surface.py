"""The public surface is pinned: adding or removing a name is a deliberate edit."""

import inspect

import pytest

import spectral_forge
from spectral_forge import errors, linalg, measures, product
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
    for kernel in (linalg._jacobi_hermitian, linalg._jacobi_one_sided):
        assert "rotation_budget" not in inspect.signature(kernel).parameters
    assert "relative" not in inspect.signature(linalg._clusters).parameters
    # the measure's label picks its rule: no flag beside it
    for rule in (linalg._clusters, linalg._reach):
        assert "own" not in inspect.signature(rule).parameters
    assert list(inspect.signature(linalg._refuse_past_scale_limit).parameters
                ) == ["m"]
