"""Every module of the package uses every name it imports.

A stdlib-ast check, since no linter ships with the lab: a name bound by an
import must be read somewhere in its module.  `__init__.py` re-exports
names, and an import line marked `# noqa: F401` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dirichlet_lab"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """Names bound by an import of source and never read, in order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import sys  # noqa: F401\n"
        "from json import (\n"
        "    dumps as write,\n"
        "    loads,\n"
        ")\n"
        "print(write, os.sep)\n"
    )
    assert _unused_imports(source) == ["loads"]


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text()) == [], path.name
