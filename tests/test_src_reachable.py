"""Every top-level function and class in src/ckgrec, and every method, is used by the program.

Code that only the tests call belongs in tests/, so a definition must be
referenced from src/ckgrec or from the benchmark in bench/.  The package
root re-exports nothing, so each name has one import path.  No module
scatters with a ufunc's `.at` either: row sums have one vectorised
path, `kernels.row_sums`.  No module multiplies users by items outside `evaluate.score_block`, the
one aligned block product every score comes from.  And no thread is
started outside `model.both_sides`, the one place the two graphs run at
once.  `cli` hashes no file: every digest it records comes from the
parse that read the bytes.
"""

import ast
from pathlib import Path

import ckgrec

SRC = Path(ckgrec.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _referenced(path: Path, attributes_only: bool = False) -> set:
    """Names, attribute names and imported names a module mentions; with `attributes_only`, only the attribute names."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.split(".")[-1] for alias in node.names)
    return used


def _program_names(attributes_only: bool = False) -> set:
    """Every name the program mentions: src/ckgrec and bench/."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5, f"found only {modules}; the glob is not reading the package"
    used = set()
    for path in modules + sorted(BENCH.glob("*.py")):
        used |= _referenced(path, attributes_only)
    return used


def _definitions():
    """(module path, parsed module) of every module of src/ckgrec."""
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]


def test_every_top_level_definition_is_referenced():
    used = _program_names()
    unreferenced = [
        f"{path.name}:{node.name}"
        for path, tree in _definitions()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert not unreferenced, f"defined in src/ but used only by tests, or not at all: {unreferenced}"


def test_every_method_is_referenced():
    """Methods and properties of every class in src/ckgrec; dunders are exempt.

    A member counts as used only where the program reads it as an
    attribute (`obj.name`): a local variable of the same name (`token`)
    does not.  A name check still cannot tell a member from a numpy or
    builtin attribute of the same name (`copy`, `rows`), so it catches
    only members no attribute read anywhere in the program names.
    """
    used = _program_names(attributes_only=True)
    unreferenced = [
        f"{path.name}:{cls.name}.{node.name}"
        for path, tree in _definitions()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert not unreferenced, f"methods in src/ used only by tests, or not at all: {unreferenced}"


def test_package_root_binds_only_its_version():
    """`import ckgrec` loads no submodule: each name has one import path, the module that defines it."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, f"__init__.py imports on lines {imports}"
    bound = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert bound == {"__version__"}
    assert [type(node) for node in tree.body] == [ast.Expr, ast.Assign]


def test_no_unused_imports():
    """Every name a module of src/ckgrec imports is used in that module.

    `from __future__` imports switch on language features and are exempt.
    """
    unused = []
    for path in sorted(SRC.glob("*.py")):
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


def test_no_ufunc_at_calls():
    """`np.add.at` and every other `<ufunc>.at` scatter stay out of src/ckgrec."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path, tree in _definitions()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "at"
    ]
    assert not calls, f"ufunc.at scatters in src/ (use kernels.row_sums): {calls}"


def _with_functions(tree):
    """(node, name of the innermost enclosing function or None) of every node below `tree`."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            yield child, inner
            yield from visit(child, inner)

    return visit(tree, None)


THREAD_MODULES = {"threading", "_thread", "concurrent", "multiprocessing"}
THREAD_CALLS = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process", "Pool", "start_new_thread", "submit"}


def test_threads_start_only_in_both_sides():
    """Only model.py imports a threading module, and only `both_sides` makes or feeds a worker."""
    imports, calls = [], []
    for path, tree in _definitions():
        for node, function in _with_functions(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if path.name != "model.py" and any(m.split(".")[0] in THREAD_MODULES for m in modules):
                imports.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if name in THREAD_CALLS and (path.name, function) != ("model.py", "both_sides"):
                    calls.append(f"{path.name}:{node.lineno} in {function}")
    assert not imports, f"threading modules imported outside model.py: {imports}"
    assert not calls, f"threads made or fed outside model.both_sides: {calls}"


PRODUCT_CALLS = {"matmul", "dot", "inner", "einsum", "tensordot", "vdot"}


def _user_item_products(tree) -> list:
    """(line, enclosing function) of every product of an operand named for users with one named for items."""
    found = []
    for node, function in _with_functions(tree):
        operands = []
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in PRODUCT_CALLS:
            operands = node.args
        text = [ast.unparse(operand).lower() for operand in operands]
        if any("user" in t for t in text) and any("item" in t for t in text):
            found.append((node.lineno, function))
    return found


def test_user_item_scores_come_from_score_block_only():
    """A recommend row equals the evaluated row bit for bit only if both come from the same aligned block."""
    products = [
        f"{path.name}:{line} in {function}"
        for path, tree in _definitions()
        for line, function in _user_item_products(tree)
        if (path.name, function) != ("evaluate.py", "score_block")
    ]
    assert not products, f"user-by-item products outside evaluate.score_block: {products}"
    evaluate = SRC / "evaluate.py"
    assert [f for _, f in _user_item_products(ast.parse(evaluate.read_text(encoding="utf-8")))] == ["score_block"]


def test_cli_takes_every_input_digest_from_a_parser():
    """`cli` neither imports hashlib nor names `ingest.input_digests`, so no second hashing pass reads an input.

    Its digests come from the parsers (`ParseResult.digest`, the third
    value of `parse_attribute_triples`, the value `verify_manifest`
    returns) and `checkpoint.attach` hashes the files no parser read.
    """
    path = SRC / "cli.py"
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").split(".")[0])
    assert "hashlib" not in modules, "cli imports hashlib"
    assert "input_digests" not in _referenced(path), "cli names input_digests"
