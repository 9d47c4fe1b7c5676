"""Every configuration field is read by the package, and only the world keys shape the world."""

import ast
from dataclasses import fields, replace
from pathlib import Path

import ckgrec
from ckgrec import cli
from ckgrec.config import WORLD_KEYS, RunConfig
from ckgrec.ingest import INPUT_FILES

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


def another(value):
    """A different value of the same kind, valid for every free field of the base config below."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 2
    if isinstance(value, float):
        return value / 2
    if isinstance(value, tuple):
        return tuple(x + 1 for x in value)
    return "elsewhere"  # an unset path


def test_keys_outside_world_keys_leave_the_world_alone(tmp_path):
    # a checkpoint serves whatever these keys say, so none of them may shape the world it was trained on
    assert cli.main(["synth", "--out", str(tmp_path), "--users", "20", "--items", "15", "--factors", "3",
                     "--per-user", "5", "--seed", "7"]) == 0
    with open(tmp_path / "interactions.tsv", "a") as fh:
        fh.write("u20\ti0\tview\n")  # a user with one record, so a minimum count of 2 would drop it
    paths = {name: str(tmp_path / f"{name}.tsv") for name in ("interactions", "user_attrs", "item_attrs")}
    base = RunConfig(d=8, k=8, layers=1, dims=(8, 8), **paths).validate()

    def world_of(cfg):
        world = cli._build_world(cfg)
        pairs = (world.train_pairs, world.val_pairs, world.test_pairs)
        return world.kg_u.digest(), world.kg_i.digest(), *(p.tobytes() for p in pairs)

    want = world_of(base)
    assert world_of(replace(base, seed=1)) != want  # a world key does shape it
    free = [f.name for f in fields(RunConfig) if f.name not in WORLD_KEYS + INPUT_FILES]
    assert free and "lr" in free
    for name in free:
        cfg = replace(base, **{name: another(getattr(base, name))}).validate()
        assert getattr(cfg, name) != getattr(base, name)
        assert world_of(cfg) == want, f"{name} shapes the world but is not in WORLD_KEYS"
