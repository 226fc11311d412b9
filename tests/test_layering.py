"""The modules of `dqw` share no private names: a helper that two
modules need is public in the module that owns it (multi-index
arithmetic in `terms`).  `rationals._coerce` is the one exception."""

import ast
import pathlib

import dqw

SRC = pathlib.Path(dqw.__file__).parent
SHARED_PRIVATE = {"rationals"}


def _private_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.ImportFrom) and node.level
                and node.module not in SHARED_PRIVATE):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"


def test_no_private_imports_across_modules():
    found = [line for path in sorted(SRC.glob("*.py")) for line in _private_imports(path)]
    assert found == []
