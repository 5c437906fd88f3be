"""config.KEYS is exactly the set of keys the package reads.

A stdlib-ast check, in the spirit of test_imports.py.  A key is read when
a string literal is passed to an ExperimentConfig accessor (`get*`,
`require`, `matrix`), tested with `in ….entries` or subscripted from
`.entries`.  An ExperimentConfig is named `cfg`, or `self` inside
config.py.  Every flag's dest is a key too.  Per subcommand, the keys its
handler reads beyond config.SHARED_KEYS are its config.SUBCOMMAND_KEYS,
and its flags write only keys it takes.
"""

import argparse
import ast
from pathlib import Path

from dirichlet_lab.cli import _HANDLERS, _build_parser
from dirichlet_lab.config import KEYS, SHARED_KEYS, SUBCOMMAND_KEYS

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dirichlet_lab"
_ACCESSORS = {"get", "get_int", "get_float", "get_bool", "get_floats", "get_ints", "require", "matrix"}


def _keys_read(source: str, receivers=("cfg",)) -> set:
    """The string keys that source reads from an ExperimentConfig named by receivers."""

    def config(node):
        return isinstance(node, ast.Name) and node.id in receivers

    def entries(node):
        return isinstance(node, ast.Attribute) and node.attr == "entries" and config(node.value)

    def literal(node):
        return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None

    keys = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
            if node.func.attr in _ACCESSORS and config(node.func.value):
                keys.add(literal(node.args[0]))
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In):
            if entries(node.comparators[0]):
                keys.add(literal(node.left))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and entries(node.value):
            keys.add(literal(node.slice))
    keys.discard(None)
    return keys


def _package_keys() -> set:
    keys = set()
    for path in sorted(_PACKAGE.glob("*.py")):
        receivers = ("cfg", "self") if path.name == "config.py" else ("cfg",)
        keys |= _keys_read(path.read_text(), receivers)
    return keys


def test_the_check_finds_every_form_of_read():
    source = (
        "def run(cfg, result):\n"
        "    cfg.get_int('a.n')\n"
        "    cfg.matrix('A')\n"
        "    if 'a.x' in cfg.entries:\n"
        "        cfg.entries['a.y']\n"
        "    cfg.entries['a.z'] = '1'\n"
        "    result.get('not.a.key')\n"
        "    cfg.get(name)\n"
    )
    assert _keys_read(source) == {"a.n", "A", "a.x", "a.y"}


def test_every_key_read_is_a_known_key_and_every_known_key_is_read():
    read = _package_keys()
    assert sorted(read - KEYS) == []
    assert sorted(KEYS - read) == []


def test_every_flag_dest_is_a_known_key():
    parser = _build_parser()
    for sub in _HANDLERS:
        dests = set(vars(parser.parse_args([sub]))) - {"config", "set"}
        assert sorted(dests - KEYS) == [], sub
        assert sorted(dests - SHARED_KEYS - SUBCOMMAND_KEYS[sub]) == [], sub


def test_each_subcommand_takes_the_keys_its_handler_reads():
    functions = {
        node.name: ast.unparse(node)
        for node in ast.parse((_PACKAGE / "cli.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert set(SUBCOMMAND_KEYS) == set(_HANDLERS)
    for sub, handler in _HANDLERS.items():
        assert _keys_read(functions[handler.__name__]) - SHARED_KEYS == SUBCOMMAND_KEYS[sub], sub


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_flag_value_name_in_help_is_its_key():
    # --help shows MEASURE.S_PUSH-style names no more: --set takes keys as written
    for sub, parser in _subparsers(_build_parser()).items():
        usage = " ".join(parser.format_usage().split())
        named = 0
        for action in parser._actions:
            if action.dest in ("help", "config", "set") or action.nargs == 0 or action.choices:
                continue
            assert action.dest in KEYS, (sub, action.dest)
            assert f"[{action.option_strings[-1]} {action.dest}]" in usage, (sub, action.dest)
            named += 1
        assert named >= 3, sub
