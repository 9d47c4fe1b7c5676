"""Every top-level function and class in src/ckgrec is used by the program.

Code that only the tests call belongs in tests/, so a definition must be
referenced from src/ckgrec (re-exports in __init__.py do not count) or
from the benchmark in bench/.
"""

import ast
from pathlib import Path

import ckgrec

SRC = Path(ckgrec.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# load_config is a public library entry point: callers outside this
# repository read config files through it, though the CLI parses its own
EXEMPT = {"load_config"}


def _referenced(path: Path) -> set:
    """Names, attribute names and imported names a module mentions."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.split(".")[-1] for alias in node.names)
    return used


def test_every_top_level_definition_is_referenced():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5, f"found only {modules}; the glob is not reading the package"
    used = set()
    for path in [p for p in modules if p.name != "__init__.py"] + sorted(BENCH.glob("*.py")):
        used |= _referenced(path)
    unreferenced = [
        f"{path.name}:{node.name}"
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used | EXEMPT
    ]
    assert not unreferenced, f"defined in src/ but used only by tests, or not at all: {unreferenced}"


def test_no_unused_imports():
    """Every name a module of src/ckgrec imports is used in that module.

    __init__.py only re-exports, and `from __future__` imports switch on
    language features; both are exempt.
    """
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{name}" for name in imported if name not in used]
    assert not unused, f"imported but never used: {unused}"
