"""Dead-code guard: every public library function has a caller."""

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
    ("simulate_on_device", "the on-device reference of acceptance criteria 7 and 10"),
)


def _public_functions() -> dict[str, Path]:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[node.name] = path
    return found


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
