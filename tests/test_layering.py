"""The modules of `dqw` share no private names: a helper that two
modules need is public in the module that owns it (multi-index
arithmetic in `terms`).  `rationals._coerce` is the one exception.
No module of `dqw` or of the tests imports a name it does not use;
the re-exports of an `__init__.py` are exempt.  No module of `dqw`
imports `hashlib`, which maps OpenSSL's libcrypto into every process,
other than as the fallback of an `except ImportError` clause.  The
modules compute on flat scalar terms only: `QPolynomial` is the output
type of `qpoly.group_terms`, and the code of no other module names it
(a docstring may)."""

import ast
import pathlib

import dqw

SRC = pathlib.Path(dqw.__file__).parent
TESTS = pathlib.Path(__file__).parent
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


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for name, lineno in imported.items():
        if name not in used:
            yield f"{path.name}:{lineno}: {name}"


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = [line for path in paths if path.name != "__init__.py"
             for line in _unused_imports(path)]
    assert found == []


def _hashlib_imports(path):
    tree = ast.parse(path.read_text())
    fallback = {id(node) for handler in ast.walk(tree)
                if isinstance(handler, ast.ExceptHandler)
                and isinstance(handler.type, ast.Name) and handler.type.id == "ImportError"
                for node in ast.walk(handler)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if "hashlib" in names and id(node) not in fallback:
            yield f"{path.name}:{node.lineno}: import hashlib"


def test_no_hashlib_imports():
    found = [line for path in sorted(SRC.glob("*.py")) for line in _hashlib_imports(path)]
    assert found == []


def _qpolynomial_names(path):
    """Code that names QPolynomial: a name, an attribute, an import or a
    definition; docstrings are constants and do not count."""
    for node in ast.walk(ast.parse(path.read_text())):
        if "QPolynomial" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
            yield f"{path.name}:{node.lineno}"


def test_kernels_do_not_name_qpolynomial():
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "qpoly.py"]
    assert len(paths) >= 10
    found = [line for path in paths for line in _qpolynomial_names(path)]
    assert found == []
