"""Dead-code guards: every public library function has a caller, and every
defaulted parameter of one is passed by some caller."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "edgemal"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")

# Public functions that nothing in src/ or perfbench/ calls, each with the
# reason it stays.
LIBRARY_ONLY = (
    ("model_flops", "test oracle: the flop count the simulator timing tests use"),
    ("backward_check", "test oracle: the gradient check of acceptance criterion 3"),
    ("spec_to_json", "write half of the model spec format the CLI reads"),
    ("corpus_images", "the in-memory corpus of acceptance criterion 6"),
    ("scenario_to_json", "write half of the fleet scenario format the CLI reads"),
    ("resource_report", "the per-node table of acceptance criterion 8"),
)

# Defaulted parameters of public functions that no call in src/ or perfbench/
# passes, each with the reason it stays.
TEST_ONLY_PARAMETERS = (
    ("backward_check", "step",
     "the central-difference step of the gradient-check oracle; acceptance"
     " criterion 3 uses its default"),
    ("simulate_inference", "faults",
     "the fault schedule of the simulation tests and acceptance criterion 10"),
)


def _public_defs() -> dict[str, tuple[Path, ast.FunctionDef]]:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[node.name] = path, node
    return found


def _public_functions() -> dict[str, Path]:
    return {name: path for name, (path, _) in _public_defs().items()}


def _references() -> set[tuple[str, Path, str | None]]:
    """(name read, file, enclosing top-level function) for every name or
    attribute read in src/ and perfbench/."""
    refs = set()
    for root in CALLER_DIRS:
        for path in sorted(root.rglob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                owner = top.name if isinstance(top, ast.FunctionDef) else None
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        refs.add((node.id, path, owner))
                    elif isinstance(node, ast.Attribute):
                        refs.add((node.attr, path, owner))
    return refs


def _uncalled() -> set[str]:
    refs = _references()
    return {name for name, home in _public_functions().items()
            if not any(ref == name and not (path == home and owner == name)
                       for ref, path, owner in refs)}


def test_public_functions_have_a_caller():
    library_only = {name for name, _ in LIBRARY_ONLY}
    assert all(reason for _, reason in LIBRARY_ONLY)
    assert _uncalled() - library_only == set(), "delete these or give them a caller"
    # an entry that gained a caller, or whose function is gone, leaves the list
    assert library_only - _uncalled() == set()


def _calls() -> list[ast.Call]:
    return [node for root in CALLER_DIRS for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)]


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position or None if keyword-only, name) of every defaulted parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return ([(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            + [(None, arg.arg) for arg, default
               in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None])


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether `call` passes the parameter by keyword, through `**`, or by
    position (a `*` argument at or before it counts)."""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    if position is None:
        return False
    return (position < len(call.args)
            or any(isinstance(arg, ast.Starred) for arg in call.args))


def _unpassed() -> set[tuple[str, str]]:
    calls = _calls()
    return {(name, param)
            for name, (_, fn) in _public_defs().items()
            for position, param in _defaulted(fn)
            if not any(_callee(call) == name and _passes(call, position, param)
                       for call in calls)}


def test_defaulted_parameters_are_passed():
    listed = {(name, param) for name, param, _ in TEST_ONLY_PARAMETERS}
    assert all(reason for _, _, reason in TEST_ONLY_PARAMETERS)
    assert _unpassed() - listed == set(), "delete these knobs or pass them"
    assert listed - _unpassed() == set()
