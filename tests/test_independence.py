"""The package does its own eigenwork; numpy's solvers are test oracles only.

Scans every module of ``spectral_forge`` for ``numpy.linalg`` routines
other than ``norm`` and for any ``scipy`` import.
"""

import ast
import pathlib

import spectral_forge

PACKAGE = pathlib.Path(spectral_forge.__file__).parent
ALLOWED = {"norm"}


def _linalg_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of every numpy.linalg routine or scipy import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            base = node.value
            if (isinstance(base, ast.Attribute) and base.attr == "linalg"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in ("np", "numpy")):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] == "scipy":
                found.append((node.lineno, module))
            elif module == "numpy.linalg":
                found.extend((node.lineno, a.name) for a in node.names)
            elif module == "numpy":
                found.extend((node.lineno, "linalg") for a in node.names
                             if a.name == "linalg")
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, a.name) for a in node.names
                         if a.name.split(".")[0] == "scipy"
                         or a.name == "numpy.linalg")
    return found


def test_scanner_flags_solvers_and_scipy():
    source = ("import numpy as np\nimport scipy.linalg\n"
              "from numpy.linalg import eigh\n"
              "w = np.linalg.eig(m)\nn = np.linalg.norm(m)\n")
    names = [name for _, name in _linalg_uses(source)]
    assert names == ["scipy.linalg", "eigh", "eig", "norm"]


def test_package_uses_no_numpy_solver_or_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    bad = []
    norms = 0
    for path in modules:
        for line, name in _linalg_uses(path.read_text(encoding="utf-8")):
            if name in ALLOWED:
                norms += 1
            else:
                bad.append(f"{path.name}:{line} {name}")
    assert not bad, "eigenwork must stay in the package's Jacobi: " + ", ".join(bad)
    assert norms > 0  # the scan sees the norms the package does use
