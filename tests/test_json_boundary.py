"""The artifact format is decided in one module: only ``io.py`` imports json.

Every other module of ``spectral_forge`` reads and writes documents
through ``spectral_forge.io``, so the float text, layout and error
mapping of artifacts cannot drift between commands.
"""

import ast
import pathlib

import spectral_forge

PACKAGE = pathlib.Path(spectral_forge.__file__).parent


def _json_imports(source: str) -> list[int]:
    """Lines that import ``json`` or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(node.lineno for a in node.names
                         if a.name.split(".")[0] == "json")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "json":
                found.append(node.lineno)
    return found


def test_scanner_flags_every_import_form():
    source = ("import os\nimport json\nimport json.decoder as d\n"
              "from json import dumps\nfrom . import io\n"
              "from .json_like import x\n")
    assert _json_imports(source) == [2, 3, 4]


def test_only_io_imports_json():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    users = sorted(path.name for path in modules
                   if _json_imports(path.read_text(encoding="utf-8")))
    assert users == ["io.py"]
