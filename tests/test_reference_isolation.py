"""tests/reference.py stays independent of the package it checks."""

import ast
from pathlib import Path


def test_reference_does_not_import_ckgrec():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "no imports found; the parser is not reading the file"
    offending = [name for name in imported if name.split(".")[0] == "ckgrec" or name.startswith(".")]
    assert not offending, f"reference.py imports {offending}"
