"""Every configuration field is read by the package, not only parsed and echoed."""

import ast
from dataclasses import fields
from pathlib import Path

import ckgrec
from ckgrec.config import RunConfig

# fields the package reads through a RunConfig property, not by name
READ_VIA = {"train_ratio": "ratios", "val_ratio": "ratios", "test_ratio": "ratios"}


def test_every_run_config_field_is_read_outside_config():
    # a read is an attribute access `.name` or the string "name" (getattr by name)
    used = set()
    for path in Path(ckgrec.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unread = [f.name for f in fields(RunConfig) if READ_VIA.get(f.name, f.name) not in used]
    assert not unread, f"RunConfig fields never read outside config.py: {unread}"
