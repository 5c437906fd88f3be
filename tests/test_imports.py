"""Every module of the package uses every name it imports, and the package
reads every private name it defines.

Stdlib-ast checks, since no linter ships with the lab.  A name bound by an
import must be read somewhere in its module; `__init__.py` re-exports
names, and an import line marked `# noqa: F401` is kept on purpose.  A
private module-level function, class or constant, and a private method of
a class with no bases, must be read (as a name or an attribute) somewhere
in the package, unless perfbench's tracer names it.
"""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dirichlet_lab"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
_TRACING = _PACKAGE.parents[1] / "perfbench" / "tracing.py"


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dead_definitions(sources: dict, exempt=frozenset()) -> list:
    """module.name (module.Class.name for a method) of every private
    definition of sources, {module: source}, that no source reads, in order.

    A method counts only in a class with no bases, where nothing outside the
    class can call it by overriding.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [f"{module}.{name}" for name in names if _private(name)]
            if isinstance(node, ast.ClassDef) and not node.bases:
                defined += [
                    f"{module}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and _private(item.name)
                ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return [name for name in defined if name.rsplit(".", 1)[1] not in read and name not in exempt]


def _traced_names() -> set:
    """module.name of every (module, name, ...) row of perfbench's TARGETS."""
    for node in ast.parse(_TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {f"{row.elts[0].value}.{row.elts[1].value}" for row in node.value.elts}
    raise AssertionError("perfbench/tracing.py has no TARGETS list")


def _package_sources() -> dict:
    return {p.stem: p.read_text() for p in sorted(_PACKAGE.glob("*.py"))}


def test_the_check_finds_a_dead_definition():
    source = (
        "_LIMIT = 3\n"
        "_UNUSED = 4\n"
        "def _helper(x):\n"
        "    return x + _LIMIT\n"
        "def _orphan():\n"
        "    pass\n"
        "class _Base:\n"
        "    def _used(self):\n"
        "        return _helper(1)\n"
        "    def _dead(self):\n"
        "        self._dead_store = 1\n"
        "    def __len__(self):\n"
        "        return self._used()\n"
        "class Child(_Base):\n"
        "    def _override(self):\n"
        "        pass\n"
    )
    assert _dead_definitions({"m": source}) == ["m._UNUSED", "m._orphan", "m._Base._dead"]
    assert _dead_definitions({"m": source}, {"m._orphan"}) == ["m._UNUSED", "m._Base._dead"]
    # a definition read only by another module of the package is alive
    assert _dead_definitions({"m": source, "n": "from m import x\nx._UNUSED\n"}) == ["m._orphan", "m._Base._dead"]


def test_the_check_finds_a_ladder_helper_left_behind():
    sources = _package_sources()
    sources["exact2d"] += (
        "\n\ndef _row_ladder(r, q):\n"
        "    points = [(-rk if k % 2 == 0 else rk, qk) for k, (rk, qk) in enumerate(zip(r, q))]\n"
        "    return points, partial_quotients(r[-1], r[-2])\n"
    )
    assert _dead_definitions(sources, _traced_names()) == ["exact2d._row_ladder"]


def test_the_exemptions_are_read_off_the_tracer_targets():
    traced = _traced_names()
    assert {"exact2d.Exact2D._reduced", "lattice._enumerate_ball", "cli.cli_main"} <= traced


def test_the_package_reads_every_private_name_it_defines():
    assert _dead_definitions(_package_sources(), _traced_names()) == []
