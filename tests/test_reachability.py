"""Every public function and method defined in `src/dqw` runs on a
pipeline path: the goldens and fixtures generators, the two build-tau
operations of the benchmark and one text report of the CLI.  A helper
that only tests call belongs in `tests/oracles.py` or
`tests/strategies.py`; code that nothing calls is deleted.  Dunder
methods are exempt, and so are the names in ALLOWED, each with the
reason it stays."""

import ast
import importlib.util
import pathlib
import sys

import dqw
from dqw import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(dqw.__file__).parent

# module.qualified name (or module.Class for all of its methods) -> reason
ALLOWED = {
    "cli.run": "the process entry point; the traced run calls main() in process",
    "cobsolver.check_solvability_preconditions": "runs only when a stage fails, to name the reason",
    "cobsolver.solve_sparse_system": "perfbench/tracer.py wraps it by name",
    "starspec.make_zero_star": "perfbench/tracer.py wraps it by name",
    "functionals.GluedFunctional": "perfbench/tracer.py wraps GluedFunctional.action by name",
}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _public_definitions():
    """module.qualified name of every public module-level function and
    method of a module-level class, as (path, qualified name, label)."""
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members = [(node.name, node.name)]
            elif isinstance(node, ast.ClassDef):
                members = [(sub.name, f"{node.name}.{sub.name}") for sub in node.body
                           if isinstance(sub, ast.FunctionDef)]
            else:
                continue
            for name, qualname in members:
                if not name.startswith("_"):
                    yield str(path), qualname, f"{module}.{qualname}"


def _allowed(label):
    return label in ALLOWED or label.rsplit(".", 1)[0] in ALLOWED


def _run_pipeline(tmp_path):
    goldens = _load("make_goldens", ROOT / "scripts" / "make_goldens.py")
    fixtures = _load("make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    goldens.goldens()
    fixtures.fixtures()
    for op in workloads.make_ops("build-tau", ROOT, tmp_path, 7):
        assert cli.main([*op.argv, "--out", str(tmp_path / "build.json")]) == 0
    assert cli.main(["run", "--scenario", str(ROOT / "scenarios" / "k0-degenerate.json"),
                     "--format", "text", "--out", str(tmp_path / "report.txt")]) == 0


def test_every_public_definition_runs(tmp_path):
    called = set()

    def trace(frame, event, arg):
        called.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _run_pipeline(tmp_path)
    finally:
        sys.settrace(previous)
    uncalled = [label for path, qualname, label in _public_definitions()
                if (path, qualname) not in called and not _allowed(label)]
    assert uncalled == []


def test_allowlist_names_existing_definitions():
    labels = {label for _path, _qualname, label in _public_definitions()}
    stale = [name for name in ALLOWED
             if name not in labels and not any(label.startswith(name + ".") for label in labels)]
    assert stale == []
