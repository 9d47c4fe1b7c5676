"""Command-line pipeline, driven in-process through main(argv)."""

import argparse
import builtins
import collections
import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest

from ckgrec import checkpoint, cli
from ckgrec.cli import main
from ckgrec.config import load_config
from ckgrec.evaluate import (
    RANK_BLOCK,
    model_scores,
    popularity_scores,
    random_scores,
    rank_and_score,
    truth_by_user,
)
from ckgrec.ingest import input_digests
from ckgrec.model import DualModel

from conftest import rewrite_metadata

# small but non-degenerate: 3 latent factors, every user reaches all items
SYNTH_ARGS = [
    "--users", "20", "--items", "15", "--factors", "3",
    "--per-user", "5", "--noise", "0.1",
]
TRAIN_SETS = [
    "--set", "d=8", "--set", "k=8", "--set", "layers=1", "--set", "dims=8",
    "--set", "epochs=3", "--set", "lr=0.01", "--set", "top_k=5",
]


def run(*argv) -> int:
    return main([str(a) for a in argv])


def synth_into(out_dir, *extra) -> int:
    return run("synth", "--out", out_dir, *SYNTH_ARGS, *extra)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert synth_into(out, "--seed", "7") == 0
    return out


def data_flags(dataset):
    return [
        "--interactions", str(dataset / "interactions.tsv"),
        "--user-attrs", str(dataset / "user_attrs.tsv"),
        "--item-attrs", str(dataset / "item_attrs.tsv"),
    ]


def swap_item_attributes(data_dir) -> None:
    """Let the first two items of item_attrs.tsv trade values: every entity and relation stays, one edge pair moves."""
    path = data_dir / "item_attrs.tsv"
    lines = path.read_text().splitlines(keepends=True)
    (h0, r0, t0), (h1, r1, t1) = (line.rstrip("\n").split("\t") for line in lines[:2])
    assert h0 != h1 and r0 == r1 and t0 != t1
    lines[:2] = [f"{h0}\t{r0}\t{t1}\n", f"{h1}\t{r1}\t{t0}\n"]
    path.write_text("".join(lines))


@pytest.fixture(scope="module")
def run_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run("train", *data_flags(dataset), "--out", out, *TRAIN_SETS, "--seed", "7")
    assert code == 0
    return out


def count_opens(monkeypatch) -> collections.Counter:
    """From now on every `open` of a path counts once under its real path."""
    opened = collections.Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened[os.path.realpath(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return opened


def no_world(monkeypatch) -> None:
    """From now on a call that builds the world is a fault (exit 2)."""
    def no_world(cfg):
        raise AssertionError("a version-2 checkpoint rebuilt the world")

    monkeypatch.setattr(cli, "_build_world", no_world)


class TestSynth:
    FILES = ("interactions.tsv", "user_attrs.tsv", "item_attrs.tsv", "factors.tsv", "manifest.txt")

    def test_writes_expected_files(self, dataset):
        for name in self.FILES:
            assert (dataset / name).stat().st_size > 0
        manifest = (dataset / "manifest.txt").read_text()
        assert manifest == "users=20\nitems=15\ninteractions=100\n"

    def test_reruns_are_byte_identical(self, dataset, tmp_path):
        again = tmp_path / "again"
        assert synth_into(again, "--seed", "7") == 0
        for name in self.FILES:
            assert (again / name).read_bytes() == (dataset / name).read_bytes()

    def test_seed_changes_output(self, dataset, tmp_path):
        other = tmp_path / "other"
        assert synth_into(other, "--seed", "8") == 0
        assert (other / "interactions.tsv").read_bytes() != (dataset / "interactions.tsv").read_bytes()

    def test_env_seed_fallback(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("CKGR_SEED", "7")
        out = tmp_path / "env"
        assert synth_into(out) == 0
        assert (out / "interactions.tsv").read_bytes() == (dataset / "interactions.tsv").read_bytes()

    def test_empty_env_seed_is_unset(self, tmp_path, monkeypatch):
        assert synth_into(tmp_path / "zero", "--seed", "0") == 0
        monkeypatch.setenv("CKGR_SEED", "")
        assert synth_into(tmp_path / "empty") == 0
        for name in self.FILES:
            assert (tmp_path / "empty" / name).read_bytes() == (tmp_path / "zero" / name).read_bytes()

    def test_manifest_counts_only_the_drawn_items(self, tmp_path, capsys):
        # 10 users drawing 2 items each from 50 reach 17 of them: the manifest announces those
        out = tmp_path / "sparse"
        argv = ["--users", "10", "--items", "50", "--per-user", "2", "--factors", "2", "--noise", "0", "--seed", "1"]
        assert run("synth", "--out", out, *argv) == 0
        assert (out / "manifest.txt").read_text() == "users=10\nitems=17\ninteractions=20\n"
        assert "(10 users, 17 items, 20 interactions)" in capsys.readouterr().out
        flags = ["--interactions", out / "interactions.tsv", "--manifest", out / "manifest.txt"]
        assert run("ingest", *flags) == 0
        assert "counts match" in capsys.readouterr().out
        assert run("train", *flags, *TRAIN_SETS, "--out", tmp_path / "run") == 0

    def test_failed_manifest_replace_leaves_no_earlier_file(self, dataset, tmp_path, monkeypatch, capsys):
        out = tmp_path / "data"
        shutil.copytree(dataset, out)
        again = tmp_path / "again"
        assert run("synth", "--out", again, *SYNTH_ARGS, "--users", "30", "--seed", "8") == 0
        real = os.replace

        def crash_on_manifest(src, dst):
            if os.path.basename(dst) == "manifest.txt":
                raise OSError("simulated crash while writing manifest.txt")
            return real(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_manifest)
        assert run("synth", "--out", out, *SYNTH_ARGS, "--users", "30", "--seed", "8") == 2
        assert "simulated crash" in capsys.readouterr().err
        # the new run's files up to the manifest, and nothing of the run before
        assert sorted(os.listdir(out)) == sorted(name for name in self.FILES if name != "manifest.txt")
        for name in os.listdir(out):
            assert (out / name).read_bytes() == (again / name).read_bytes()


class TestIngest:
    def test_counts_line(self, dataset, capsys):
        assert run("ingest", "--interactions", dataset / "interactions.tsv") == 0
        out = capsys.readouterr().out
        # one raw row per interaction type, merged down to 100 (user, item) records
        assert re.search(r"rows=\d+ malformed=0 records=100 users=20 items=15 edges=100", out)

    def test_manifest_match(self, dataset, capsys):
        code = run(
            "ingest",
            "--interactions", dataset / "interactions.tsv",
            "--manifest", dataset / "manifest.txt",
        )
        assert code == 0
        assert "counts match" in capsys.readouterr().out

    def test_builds_no_graph(self, dataset, monkeypatch, capsys):
        def no_graph(*args, **kwargs):
            raise AssertionError("ingest built a graph")

        monkeypatch.setattr(cli, "build_bipartite", no_graph)
        assert run("ingest", "--interactions", dataset / "interactions.tsv", "--manifest", dataset / "manifest.txt") == 0
        assert "records=100 users=20 items=15 edges=100" in capsys.readouterr().out

    def test_manifest_mismatch_exits_1(self, dataset, tmp_path, capsys):
        bad = tmp_path / "manifest.txt"
        bad.write_text("users=20\nitems=15\ninteractions=999\n")
        code = run("ingest", "--interactions", dataset / "interactions.tsv", "--manifest", bad)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_key_exits_1(self, dataset, capsys):
        code = run(
            "ingest", "--interactions", dataset / "interactions.tsv", "--set", "wobble=3"
        )
        assert code == 1
        assert "unknown configuration key" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = run("ingest", "--interactions", tmp_path / "nope.tsv")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_no_interactions_exits_1(self, capsys):
        assert run("ingest") == 1
        assert "no interactions file" in capsys.readouterr().err

    def test_strict_stops_on_malformed_line(self, tmp_path, capsys):
        src = tmp_path / "mixed.tsv"
        src.write_text("u1\ti1\t5\nbroken-line\nu2\ti2\t4\n")
        assert run("ingest", "--interactions", src, "--strict") == 1
        assert "mixed.tsv:2" in capsys.readouterr().err
        assert run("ingest", "--interactions", src) == 0
        captured = capsys.readouterr()
        assert "malformed=1" in captured.out
        assert "line 2" in captured.err

    def test_empty_world_reports_zero_counts(self, dataset, capsys):
        assert run("ingest", "--interactions", dataset / "interactions.tsv", "--set", "min_interactions=50") == 0
        assert "records=0 users=0 items=0 edges=0" in capsys.readouterr().out

    def test_byte_order_mark_is_not_part_of_the_first_token(self, dataset, tmp_path, capsys):
        assert run("ingest", "--interactions", dataset / "interactions.tsv") == 0
        want = capsys.readouterr().out
        marked = tmp_path / "interactions.tsv"
        marked.write_bytes(b"\xef\xbb\xbf" + (dataset / "interactions.tsv").read_bytes())
        assert run("ingest", "--interactions", marked) == 0
        assert capsys.readouterr().out == want
        # the recorded digest is that of the file's bytes, mark included
        inputs = cli._read_split(load_config(overrides=[f"interactions={marked}"]))[2]
        assert inputs == {"interactions": hashlib.sha256(marked.read_bytes()).hexdigest()}

    def test_normalized_output_reparses(self, dataset, tmp_path, capsys):
        norm = tmp_path / "norm.tsv"
        assert run("ingest", "--interactions", dataset / "interactions.tsv", "--out", norm) == 0
        capsys.readouterr()
        assert run("ingest", "--interactions", norm) == 0
        assert "records=100 users=20 items=15 edges=100" in capsys.readouterr().out


class TestBuildGraph:
    def test_reports_both_sides(self, dataset, capsys):
        assert run("build-graph", *data_flags(dataset)) == 0
        out = capsys.readouterr().out
        for tag in ("user-side:", "item-side:"):
            line = next(l for l in out.splitlines() if l.startswith(tag))
            assert re.search(r"entities=\d+ relations=\d+ triples=\d+", line)
            assert re.search(r"digest=[0-9a-f]{16}", line)

    def test_paths_may_hold_a_hash(self, dataset, tmp_path, capsys):
        assert run("build-graph", *data_flags(dataset), "--manifest", dataset / "manifest.txt") == 0
        expected = capsys.readouterr().out
        hashed = tmp_path / "data#1"
        hashed.mkdir()
        for name in ("interactions.tsv", "user_attrs.tsv", "item_attrs.tsv", "manifest.txt"):
            (hashed / name).write_bytes((dataset / name).read_bytes())
        assert run("build-graph", *data_flags(hashed), "--manifest", hashed / "manifest.txt") == 0
        assert capsys.readouterr().out == expected
        assert run("ingest", "--interactions", hashed / "interactions.tsv") == 0
        assert "records=100" in capsys.readouterr().out

    def test_malformed_attribute_lines_warned(self, dataset, tmp_path, capsys):
        assert run("build-graph", *data_flags(dataset)) == 0
        clean = capsys.readouterr()
        assert "warning" not in clean.err
        attrs = tmp_path / "user_attrs.tsv"
        attrs.write_text((dataset / "user_attrs.tsv").read_text() + "u0\tonly-two-fields\n")
        flags = [*data_flags(dataset), "--user-attrs", attrs]
        assert run("build-graph", *flags) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: 1 malformed attribute lines skipped in {attrs}\n"
        assert captured.out == clean.out

    # filter -> (the setting, interaction lines it drops whole, the attribute file, the head those lines name)
    FILTERED_OUT = {
        "min_interactions": ("min_interactions=3", "ux\ti0\t1.0\nux\ti1\t1.0\n", "user_attrs", "ux"),
        "threshold": ("threshold=1", "u0\tix\t0.5\n", "item_attrs", "ix"),
    }

    @pytest.mark.parametrize("case", list(FILTERED_OUT))
    def test_attribute_lines_of_filtered_out_entities_are_skipped(self, dataset, tmp_path, capsys, case):
        setting, records, name, head = self.FILTERED_OUT[case]
        edited = tmp_path / "data"
        shutil.copytree(dataset, edited)
        with open(edited / "interactions.tsv", "a") as fh:
            fh.write(records)
        attrs = edited / f"{name}.tsv"
        clean = attrs.read_text()
        _, relation, tail = clean.splitlines()[0].split("\t")
        attrs.write_text(clean + f"{head}\t{relation}\t{tail}\n{head}\t{relation}\tonly-here\n")
        without = tmp_path / "without.tsv"
        without.write_text(clean)
        assert run("build-graph", *data_flags(edited), "--set", setting) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: 2 attribute lines about filtered-out entities skipped in {attrs}\n"

        def digests(path):
            names = ("interactions", "user_attrs", "item_attrs")
            world = cli._build_world(load_config(overrides=[*(f"{n}={edited / n}.tsv" for n in names), setting,
                                                            f"{name}={path}"]))
            return world.kg_u.digest(), world.kg_i.digest()

        assert digests(attrs) == digests(without)
        capsys.readouterr()
        # a head the interaction file never names is still an error
        with open(attrs, "a") as fh:
            fh.write(f"ghost\t{relation}\t{tail}\n")
        assert run("build-graph", *data_flags(edited), "--set", setting) == 1
        side = name.split("_")[0]
        assert capsys.readouterr().err.endswith(f"error: attribute triples reference unknown {side} heads: ghost\n")


class TestTrain:
    def test_outputs(self, run_dir):
        history = (run_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,kg_u,kg_i,cf,reg,total,val_recall,wall_ms"
        assert len(history) == 4  # header + one row per epoch
        assert all(float(row.split(",")[-1]) > 0 for row in history[1:])
        assert (run_dir / "checkpoint.ckgr").stat().st_size > 0

        manifest = json.loads((run_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 7
        assert manifest["config"]["lr"] == 0.01 and manifest["config"]["epochs"] == 3
        for digest in manifest["inputs"].values():
            assert re.fullmatch(r"[0-9a-f]{64}", digest)

    def test_requires_out_dir(self, dataset, capsys):
        code = run("train", "--interactions", dataset / "interactions.tsv", *TRAIN_SETS)
        assert code == 1
        assert "no output directory" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, dataset, run_dir, tmp_path):
        again = tmp_path / "again"
        code = run("train", *data_flags(dataset), "--out", again, *TRAIN_SETS, "--seed", "7")
        assert code == 0
        assert (again / "checkpoint.ckgr").read_bytes() == (run_dir / "checkpoint.ckgr").read_bytes()

        def deterministic_columns(out):  # every column but the last, wall_ms
            return [line.rsplit(",", 1)[0] for line in (out / "history.csv").read_text().splitlines()]

        assert deterministic_columns(again) == deterministic_columns(run_dir)

    def test_manifest_checked(self, dataset, tmp_path, capsys):
        flags = [*data_flags(dataset), *TRAIN_SETS, "--set", "epochs=0"]
        assert run("train", *flags, "--manifest", dataset / "manifest.txt", "--out", tmp_path / "ok") == 0
        bad = tmp_path / "manifest.txt"
        bad.write_text("users=20\nitems=16\ninteractions=100\n")
        capsys.readouterr()
        assert run("train", *flags, "--manifest", bad, "--out", tmp_path / "bad") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "items: manifest says 16, parsed 15" in err
        assert not (tmp_path / "bad").exists()

    def test_config_file_with_set_overrides(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = 0.005\nepochs = 2\nd = 8\nk = 8\nlayers = 1\ndims = 8\n")
        out = tmp_path / "out"
        code = run(
            "train", *data_flags(dataset), "--config", cfg,
            "--set", "epochs=1", "--out", out, "--seed", "3",
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["lr"] == 0.005  # from the file
        assert manifest["config"]["epochs"] == 1  # --set wins
        assert len((out / "history.csv").read_text().splitlines()) == 2

    def test_data_flags_and_seed_beat_set(self, dataset, tmp_path):
        out = tmp_path / "out"
        code = run(
            "train", *data_flags(dataset), *TRAIN_SETS, "--set", "epochs=0",
            "--set", f"interactions={tmp_path / 'nope.tsv'}", "--set", "seed=1", "--seed", "3", "--out", out,
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["interactions"] == str(dataset / "interactions.tsv")
        assert manifest["seed"] == 3

    def test_env_seed_lands_in_manifest(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("CKGR_SEED", "5")
        out = tmp_path / "envrun"
        code = run(
            "train", "--interactions", dataset / "interactions.tsv",
            "--set", "epochs=0", "--set", "d=4", "--set", "k=4",
            "--set", "layers=1", "--set", "dims=4", "--out", out,
        )
        assert code == 0
        assert json.loads((out / "run_manifest.json").read_text())["seed"] == 5

    def test_diverged_run_keeps_its_last_good_state(self, dataset, tmp_path, capsys):
        flags = [*data_flags(dataset), *TRAIN_SETS, "--seed", "7"]
        assert run("train", *flags, "--set", "epochs=0", "--out", tmp_path / "init") == 0
        capsys.readouterr()
        out = tmp_path / "diverged"
        assert run("train", *flags, "--set", "lr=1e154", "--out", out) == 2
        err = capsys.readouterr().err
        saved, history = out / "checkpoint.last_good.ckgr", out / "history.csv"
        assert str(saved) in err and str(history) in err
        assert "fault: epoch 0: non-finite ranking loss" in err
        assert not (out / "checkpoint.ckgr").exists()
        assert history.read_text().splitlines() == ["epoch,kg_u,kg_i,cf,reg,total,val_recall,wall_ms"]

        # the diverged epoch is the first, so the last good state is the initial model
        assert run("evaluate", "--checkpoint", saved, *data_flags(dataset), "--k", "5") == 0

        def params_and_meta(path):
            table_u, stack_u, table_i, stack_i, meta, _ = checkpoint.load(path)
            return DualModel(None, None, table_u, table_i, stack_u, stack_i, None).params(), meta

        params, meta = params_and_meta(saved)
        want, _ = params_and_meta(tmp_path / "init" / "checkpoint.ckgr")
        assert meta["epoch"] == -1
        assert sorted(params) == sorted(want)
        for name, p in params.items():
            assert np.all(np.isfinite(p)) and np.array_equal(p, want[name]), name

    def test_failed_history_replace_keeps_the_previous_history(self, dataset, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        flags = [*data_flags(dataset), *TRAIN_SETS, "--seed", "7", "--out", out]
        assert run("train", *flags, "--set", "epochs=1") == 0
        before = (out / "history.csv").read_bytes()
        real = os.replace

        def crash_on_history(src, dst):
            if os.path.basename(dst) == "history.csv":
                raise OSError("simulated crash while writing history.csv")
            return real(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_history)
        assert run("train", *flags, "--set", "epochs=2") == 2
        assert "simulated crash" in capsys.readouterr().err
        assert (out / "history.csv").read_bytes() == before
        assert not [name for name in os.listdir(out) if name.endswith(".tmp")]

    def test_failed_manifest_replace_leaves_no_checkpoint_to_evaluate(self, dataset, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        flags = [*data_flags(dataset), *TRAIN_SETS, "--seed", "7", "--out", out]
        assert run("train", *flags, "--set", "epochs=1") == 0
        real = os.replace

        def crash_on_manifest(src, dst):
            if os.path.basename(dst) == "run_manifest.json":
                raise OSError("simulated crash while writing run_manifest.json")
            return real(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_manifest)
        assert run("train", *flags, "--set", "epochs=2") == 2
        monkeypatch.setattr(os, "replace", real)
        capsys.readouterr()
        # the 1-epoch manifest beside a 2-epoch history: no checkpoint may claim either run
        assert run("evaluate", "--checkpoint", out / "checkpoint.ckgr", *data_flags(dataset)) == 1
        assert "No such file" in capsys.readouterr().err

    def test_input_appended_after_its_parse_trains_on_the_bytes_parsed(self, dataset, tmp_path, capsys,
                                                                       monkeypatch):
        # the run records the digest of what it parsed; the file as it is now is another world
        edited = tmp_path / "data"
        shutil.copytree(dataset, edited)
        path = edited / "interactions.tsv"
        parsed_bytes = path.read_bytes()
        real_parse = cli.parse_interactions

        def parse_then_append(*args, **kwargs):
            parsed = real_parse(*args, **kwargs)
            with open(path, "a") as fh:
                fh.write("u0\ti14\tview\n")
            return parsed

        monkeypatch.setattr(cli, "parse_interactions", parse_then_append)
        out = tmp_path / "run"
        assert run("train", *data_flags(edited), *TRAIN_SETS, "--out", out) == 0
        monkeypatch.setattr(cli, "parse_interactions", real_parse)
        want = hashlib.sha256(parsed_bytes).hexdigest()
        assert hashlib.sha256(path.read_bytes()).hexdigest() != want
        assert json.loads((out / "run_manifest.json").read_text())["inputs"]["interactions"] == want
        assert checkpoint.load(out / "checkpoint.ckgr").meta["input_digests"]["interactions"] == want
        capsys.readouterr()
        assert run("evaluate", "--checkpoint", out / "checkpoint.ckgr") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"another interactions file: {path} " in captured.err

    def test_each_input_file_is_opened_once(self, dataset, tmp_path, monkeypatch):
        # one read per file gives both the parse and its digest
        opened = count_opens(monkeypatch)
        names = ("interactions.tsv", "user_attrs.tsv", "item_attrs.tsv", "manifest.txt")
        flags, out = [*data_flags(dataset), "--manifest", dataset / "manifest.txt"], tmp_path / "run"
        for argv in (
            ["train", *flags, *TRAIN_SETS, "--out", out],
            ["evaluate", "--checkpoint", out / "checkpoint.ckgr", *flags],
            ["recommend", "--checkpoint", out / "checkpoint.ckgr", *flags, "--user", "u0"],
        ):
            opened.clear()
            assert run(*argv) == 0
            counts = {name: opened[os.path.realpath(dataset / name)] for name in names}
            assert counts == dict.fromkeys(names, 1), argv[0]

    def test_diverged_run_removes_an_earlier_checkpoint(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        flags = [*data_flags(dataset), *TRAIN_SETS, "--seed", "7", "--out", out]
        assert run("train", *flags, "--set", "epochs=1") == 0
        assert run("train", *flags, "--set", "lr=1e154") == 2
        assert sorted(name for name in os.listdir(out) if name.endswith(".ckgr")) == ["checkpoint.last_good.ckgr"]

    def test_manifest_hashes_every_input_file(self, dataset, tmp_path):
        out = tmp_path / "run"
        flags = [*data_flags(dataset), "--manifest", dataset / "manifest.txt", *TRAIN_SETS, "--set", "epochs=0"]
        assert run("train", *flags, "--out", out) == 0
        files = {"interactions": "interactions.tsv", "user_attrs": "user_attrs.tsv", "item_attrs": "item_attrs.tsv",
                 "manifest": "manifest.txt"}
        want = {name: hashlib.sha256((dataset / file).read_bytes()).hexdigest() for name, file in files.items()}
        assert json.loads((out / "run_manifest.json").read_text())["inputs"] == want
        assert checkpoint.load(out / "checkpoint.ckgr").meta["input_digests"] == want

    def test_overflowing_adam_moment_exits_2(self, tmp_path, monkeypatch, capsys):
        # the loss stays finite here: an overflow of Adam's second moment is what stops the run
        monkeypatch.delenv("CKGR_SEED", raising=False)
        data, out = tmp_path / "data", tmp_path / "run"
        assert run("synth", "--out", data, "--users", "30", "--items", "20", "--seed", "1") == 0
        assert run("train", *data_flags(data), "--set", "lr=1e20", "--set", "epochs=4", "--out", out) == 2
        err = capsys.readouterr().err
        assert re.search(r"fault: epoch \d+: Adam second moment of \S+ overflowed", err)
        assert (out / "checkpoint.last_good.ckgr").exists()
        assert not (out / "checkpoint.ckgr").exists()
        header, *rows = (out / "history.csv").read_text().splitlines()
        assert header == "epoch,kg_u,kg_i,cf,reg,total,val_recall,wall_ms"
        assert [row.split(",")[0] for row in rows] == ["0"]

    def test_bad_env_seed_exits_1(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CKGR_SEED", "lots")
        code = run(
            "train", "--interactions", dataset / "interactions.tsv",
            "--out", tmp_path / "x",
        )
        assert code == 1
        assert "CKGR_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["train", *TRAIN_SETS, "--out", "{tmp}/run"],
    ["build-graph"],
    ["sweep-layers", *TRAIN_SETS, "--l-values", "1", "--out", "{tmp}/run"],
], ids=["train", "build-graph", "sweep-layers"])
@pytest.mark.parametrize("empty", ["min-interactions-above-every-user", "blank-file"])
def test_empty_world_exits_1(dataset, tmp_path, capsys, command, empty):
    # every user of the dataset has 5 interactions
    path, flags = dataset / "interactions.tsv", ["--set", "min_interactions=50"]
    if empty == "blank-file":
        path, flags = tmp_path / "blank.tsv", []
        path.write_text("\n  \n")
    argv = [command[0], *data_flags(dataset), "--interactions", path, *flags,
            *(a.format(tmp=tmp_path) for a in command[1:])]
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: no interaction of {path} is left at threshold=-inf and "
        f"min_interactions={50 if flags else 0}\n")
    assert not (tmp_path / "run").exists()


def test_evaluate_of_an_empty_world_exits_1(dataset, run_dir, tmp_path, capsys):
    # a checkpoint whose stored world names a blank interaction file, with that file's digest
    blank = tmp_path / "blank.tsv"
    blank.write_text("\n")
    ckpt = tmp_path / "checkpoint.ckgr"

    def name_the_blank_file(meta):
        meta["config"]["interactions"] = str(blank)
        meta["input_digests"]["interactions"] = hashlib.sha256(blank.read_bytes()).hexdigest()

    rewrite_metadata(run_dir / "checkpoint.ckgr", ckpt, name_the_blank_file)
    assert run("evaluate", "--checkpoint", ckpt) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: no interaction of {blank} is left" in captured.err


@pytest.mark.parametrize("command", [["evaluate"], ["recommend", "--user", "u0"]], ids=["evaluate", "recommend"])
@pytest.mark.parametrize("kind", ["version-1", "no-graph-digests"])
def test_old_format_checkpoint_exits_1(dataset, run_dir, tmp_path, capsys, command, kind):
    # neither can prove the graphs it was trained on: a version-1 file stores no serving arrays, the other no digests
    old = tmp_path / f"{kind}.ckgr"
    if kind == "version-1":
        raw = (run_dir / "checkpoint.ckgr").read_bytes()
        old.write_bytes(raw[:4] + bytes([1]) + raw[5:])
    else:
        rewrite_metadata(run_dir / "checkpoint.ckgr", old, lambda meta: meta.pop("graph_digests"))
    assert run(*command, "--checkpoint", old, *data_flags(dataset)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "train the model again" in captured.err


def moved_held_out_record(dataset, edited, ckpt) -> tuple[cli.World, cli.World]:
    """Copy `dataset` to `edited` with one test record moved to another item; the worlds before and after.

    The new item appears earlier in the file and the user keeps its
    record count, so the vocabularies and the drawn split positions stay:
    the training records, and with them both graphs, can stay the same.
    """
    shutil.copytree(dataset, edited)
    path = edited / "interactions.tsv"
    paths = [f"{name}={edited / f'{name}.tsv'}" for name in ("interactions", "user_attrs", "item_attrs")]
    cfg = load_config(overrides=paths, base=checkpoint.load(ckpt).meta["config"])
    before = cli._build_world(cfg)
    lines = path.read_text().splitlines(keepends=True)
    rows = [line.split("\t") for line in lines]
    users, items = before.bg.user_vocab.tokens(), before.bg.item_vocab.tokens()
    for u, i in before.test_pairs.tolist():
        pair = [users[u], items[i]]
        first = next(n for n, row in enumerate(rows) if row[:2] == pair)
        taken = {row[1] for row in rows if row[0] == pair[0]}
        for other in dict.fromkeys(row[1] for row in rows[:first] if row[1] not in taken):
            path.write_text("".join("\t".join([pair[0], other, *row[2:]]) if row[:2] == pair else line
                                    for row, line in zip(rows, lines)))
            after = cli._build_world(cfg)
            if (after.kg_u.digest(), after.kg_i.digest()) == (before.kg_u.digest(), before.kg_i.digest()):
                return before, after
    raise AssertionError("no test record moves without changing a graph")


@pytest.mark.parametrize("command", [["evaluate"], ["recommend", "--user", "u0"]], ids=["evaluate", "recommend"])
def test_held_out_record_moved_keeping_the_graphs_exits_1(dataset, run_dir, tmp_path, capsys, command):
    # both graph digests cover only the training records: they cannot tell this test split from the trained one
    edited = tmp_path / "data"
    before, after = moved_held_out_record(dataset, edited, run_dir / "checkpoint.ckgr")
    assert (after.kg_u.digest(), after.kg_i.digest()) == (before.kg_u.digest(), before.kg_i.digest())
    assert np.array_equal(after.train_pairs, before.train_pairs)
    assert not np.array_equal(after.test_pairs, before.test_pairs)
    capsys.readouterr()
    assert run(*command, "--checkpoint", run_dir / "checkpoint.ckgr", *data_flags(edited)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert f"another interactions file: {edited / 'interactions.tsv'} " in captured.err


class TestEvaluate:
    def test_reports_model_and_baselines(self, dataset, run_dir, tmp_path, capsys):
        # a checkpoint whose config metadata still names the removed `workers` key
        legacy = tmp_path / "legacy.ckgr"
        rewrite_metadata(run_dir / "checkpoint.ckgr", legacy, lambda meta: meta["config"].update(workers=1))
        assert checkpoint.load(legacy)[4]["config"]["workers"] == 1
        for n, ckpt in enumerate((run_dir / "checkpoint.ckgr", legacy)):
            out = tmp_path / f"eval{n}"
            code = run(
                "evaluate", "--checkpoint", ckpt,
                *data_flags(dataset), "--k", "5", "--out", out,
            )
            assert code == 0
            lines = capsys.readouterr().out.splitlines()
            pattern = re.compile(r"^(model|popularity|random): precision@5=\d\.\d{4} recall@5=\d\.\d{4}$")
            labeled = [m.group(1) for m in map(pattern.match, lines) if m]
            assert labeled == ["model", "popularity", "random"]

            csv_lines = (out / "eval.csv").read_text().splitlines()
            assert csv_lines[0] == "label,K,precision,recall,seed,wall_ms"
            assert len(csv_lines) == 4
            assert json.loads((out / "run_manifest.json").read_text())["command"] == "evaluate"

    def test_k_flag_is_the_manifest_top_k(self, dataset, run_dir, tmp_path):
        out = tmp_path / "eval"
        assert run("evaluate", "--checkpoint", run_dir / "checkpoint.ckgr", *data_flags(dataset),
                   "--k", "3", "--out", out) == 0
        assert (out / "eval.csv").read_text().splitlines()[1].split(",")[:2] == ["model", "3"]
        assert json.loads((out / "run_manifest.json").read_text())["config"]["top_k"] == 3

    def test_reads_the_checkpoint_once(self, dataset, run_dir, monkeypatch):
        reads = []
        real = checkpoint.load
        monkeypatch.setattr(checkpoint, "load", lambda path: reads.append(path) or real(path))
        ckpt = run_dir / "checkpoint.ckgr"
        assert run("evaluate", "--checkpoint", ckpt, *data_flags(dataset)) == 0
        assert run("recommend", "--checkpoint", ckpt, *data_flags(dataset), "--user", "u0") == 0
        assert [str(path) for path in reads] == [str(ckpt)] * 2

    def test_flags_beat_checkpoint_metadata_beats_env_seed(self, dataset, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = 0.005\nepochs = 1\nd = 8\nk = 8\nlayers = 1\ndims = 8\n")
        trained = tmp_path / "trained"
        assert run("train", *data_flags(dataset), "--config", cfg, "--seed", "4", "--out", trained) == 0
        monkeypatch.setenv("CKGR_SEED", "9")
        out = tmp_path / "eval"
        code = run(
            "evaluate", "--checkpoint", trained / "checkpoint.ckgr", *data_flags(dataset),
            "--set", "top_k=3", "--out", out,
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["lr"] == 0.005  # checkpoint metadata
        assert manifest["seed"] == manifest["config"]["seed"] == 4  # metadata beats CKGR_SEED
        assert manifest["config"]["top_k"] == 3  # --set beats metadata
        capsys.readouterr()
        # a world key is not free, even at a value that drops no user of this data
        code = run("evaluate", "--checkpoint", trained / "checkpoint.ckgr", *data_flags(dataset),
                   "--set", "min_interactions=1")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "trained with min_interactions=0, not min_interactions=1" in captured.err

    @pytest.mark.parametrize("flags, named", [
        (["--set", "id_order=sorted"], "id_order='first-seen', not id_order='sorted'"),  # vocabularies permuted
        (["--seed", "6"], "seed=7, not seed=6"),  # the same data split anew: trained pairs land in the test set
        # the message names the key the user wrote, not the RunConfig field it sets
        (["--set", "split.train=0.7", "--set", "split.val=0.2", "--set", "split.test=0.1"],
         "split.train=0.8, not split.train=0.7"),
        # keys under which the data would not parse, or leave no record: the key is named, not the parse
        (["--set", "format=csv"], "format='tsv', not format='csv'"),
        (["--set", "min_interactions=50"], "min_interactions=0, not min_interactions=50"),
    ], ids=["reordered-vocabulary", "reseeded-split", "resized-split", "csv-format", "no-user-left"])
    def test_another_world_exits_1(self, dataset, run_dir, capsys, monkeypatch, flags, named):
        opened = count_opens(monkeypatch)
        code = run("evaluate", "--checkpoint", run_dir / "checkpoint.ckgr", *data_flags(dataset), *flags)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:") and f"trained with {named}" in captured.err
        # the keys are checked before any input file is opened
        assert [path for path in opened if path.startswith(os.path.join(os.path.realpath(dataset), ""))] == []

    def test_attribute_edit_keeping_the_counts_exits_1(self, dataset, run_dir, tmp_path, capsys):
        edited = tmp_path / "data"
        shutil.copytree(dataset, edited)
        swap_item_attributes(edited)
        code = run("evaluate", "--checkpoint", run_dir / "checkpoint.ckgr", *data_flags(edited))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"another item_attrs file: {edited / 'item_attrs.tsv'} " in captured.err

    def test_missing_checkpoint_exits_1(self, dataset, tmp_path, capsys):
        code = run(
            "evaluate", "--checkpoint", tmp_path / "no.ckgr",
            "--interactions", dataset / "interactions.tsv",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def evaluate_output(self, ckpt, capsys, *flags) -> tuple[str, str]:
        assert run("evaluate", "--checkpoint", ckpt, *flags) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_moved_data_and_free_keys_serve_the_same_lines(self, dataset, run_dir, tmp_path, capsys, monkeypatch):
        # the same bytes at another path, and a key that shapes no world, serve the same lines without a build
        ckpt, moved = run_dir / "checkpoint.ckgr", tmp_path / "moved"
        shutil.copytree(dataset, moved)
        no_world(monkeypatch)
        for k in ([], ["--k", "20"]):  # the config's top_k, and more than the 15 items
            served = self.evaluate_output(ckpt, capsys, *data_flags(dataset), *k)
            assert served[1] == ""
            assert self.evaluate_output(ckpt, capsys, *data_flags(moved), *k) == served
            assert self.evaluate_output(ckpt, capsys, *data_flags(dataset), *k, "--set", "lr=0.5") == served

    def test_served_lines_are_the_attached_model_ranked(self, dataset, run_dir, capsys):
        ckpt = run_dir / "checkpoint.ckgr"
        cfg = load_config(base=checkpoint.load(ckpt).meta["config"])
        world = cli._build_world(cfg)
        model, _ = checkpoint.attach(ckpt, world.kg_u, world.kg_i, world.align)
        train, test = truth_by_user(world.train_pairs), truth_by_user(world.test_pairs)
        n_users, n_items = world.align.n_users, world.align.n_items
        want = [
            f"{label}: precision@5={p:.4f} recall@5={r:.4f}"
            for label, scores in (
                ("model", model_scores(model)),
                ("popularity", popularity_scores(world.train_pairs, n_users, n_items)),
                ("random", random_scores(cfg.seed, n_users, n_items)),
            )
            for p, r in [rank_and_score(scores, train, test, 5)]
        ]
        out, _ = self.evaluate_output(ckpt, capsys, *data_flags(dataset))
        assert out.splitlines() == want

    def test_moved_data_and_free_keys_serve_the_same_report_files(self, dataset, run_dir, tmp_path, capsys,
                                                                  monkeypatch):
        ckpt, moved = run_dir / "checkpoint.ckgr", tmp_path / "moved"
        shutil.copytree(dataset, moved)
        no_world(monkeypatch)
        self.evaluate_output(ckpt, capsys, *data_flags(dataset), "--out", tmp_path / "served")
        self.evaluate_output(ckpt, capsys, *data_flags(moved), "--set", "lr=0.5", "--out", tmp_path / "other")

        def metric_columns(out):  # every column but the last, wall_ms
            return [line.rsplit(",", 1)[0] for line in (out / "eval.csv").read_text().splitlines()]

        def manifest(out):
            return json.loads((out / "run_manifest.json").read_text())

        served, other = tmp_path / "served", tmp_path / "other"
        assert len(metric_columns(served)) == 4 and metric_columns(served) == metric_columns(other)
        assert manifest(served)["inputs"] == manifest(other)["inputs"]
        paths = {name: str(moved / f"{name}.tsv") for name in ("interactions", "user_attrs", "item_attrs")}
        assert manifest(other) == {**manifest(served), "config": {**manifest(served)["config"], "lr": 0.5, **paths}}

    def test_stored_serving_arrays_equal_the_attached_models(self, run_dir):
        # the stored arrays are the trained model's: attached to the rebuilt graphs, it computes them bit for bit
        ckpt = run_dir / "checkpoint.ckgr"
        loaded = checkpoint.load(ckpt)
        world = cli._build_world(load_config(base=loaded.meta["config"]))
        model, _ = checkpoint.attach(ckpt, world.kg_u, world.kg_i, world.align)
        stored, recomputed = loaded.serving, checkpoint.serving_of(model)
        for name in ("users", "items", "train_ptr", "train_items"):
            want, got = getattr(stored, name), getattr(recomputed, name)
            assert got.shape == want.shape and got.astype(want.dtype).tobytes() == want.tobytes(), name
        assert recomputed.user_tokens == stored.user_tokens and recomputed.item_tokens == stored.item_tokens

    def test_wrong_count_manifest_exits_1(self, dataset, run_dir, tmp_path, capsys, monkeypatch):
        # the stored config names the manifest and its digest, so the file serves and the counts are checked
        bad = tmp_path / "manifest.txt"
        bad.write_text("users=20\nitems=16\ninteractions=100\n")
        ckpt = tmp_path / "checkpoint.ckgr"

        def name_the_manifest(meta):
            meta["config"]["manifest"] = str(bad)
            meta["input_digests"]["manifest"] = hashlib.sha256(bad.read_bytes()).hexdigest()

        rewrite_metadata(run_dir / "checkpoint.ckgr", ckpt, name_the_manifest)
        no_world(monkeypatch)
        assert run("evaluate", "--checkpoint", ckpt, *data_flags(dataset)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "items: manifest says 16, parsed 15" in captured.err

    def test_served_file_warns_on_malformed_interaction_lines(self, dataset, run_dir, tmp_path, capsys, monkeypatch):
        edited = tmp_path / "data"
        shutil.copytree(dataset, edited)
        with open(edited / "interactions.tsv", "a") as fh:
            fh.write("not a record\n")
        ckpt = tmp_path / "checkpoint.ckgr"

        def name_the_edited_files(meta):
            meta["config"].update({name: str(edited / f"{name}.tsv") for name in ("interactions", "user_attrs",
                                                                                 "item_attrs")})
            meta["input_digests"] = input_digests(meta["config"])

        rewrite_metadata(run_dir / "checkpoint.ckgr", ckpt, name_the_edited_files)
        want, _ = self.evaluate_output(run_dir / "checkpoint.ckgr", capsys, *data_flags(dataset))
        no_world(monkeypatch)
        out, err = self.evaluate_output(ckpt, capsys, *data_flags(edited))
        assert out == want
        assert err == f"warning: 1 malformed interaction lines skipped in {edited / 'interactions.tsv'}\n"

    def test_input_edited_between_calls_exits_1(self, dataset, run_dir, tmp_path, capsys):
        # the same process, the same paths: only the file's content tells the two calls apart
        edited = tmp_path / "data"
        shutil.copytree(dataset, edited)
        ckpt = tmp_path / "checkpoint.ckgr"
        rewrite_metadata(run_dir / "checkpoint.ckgr", ckpt, lambda meta: meta["config"].update(
            {name: str(edited / f"{name}.tsv") for name in ("interactions", "user_attrs", "item_attrs")}))
        first, _ = self.evaluate_output(ckpt, capsys)
        assert first and self.evaluate_output(ckpt, capsys, *data_flags(dataset))[0] == first
        swap_item_attributes(edited)
        assert run("evaluate", "--checkpoint", ckpt) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"another item_attrs file: {edited / 'item_attrs.tsv'} " in captured.err

    def test_interactions_edited_after_the_digest_check_exits_1(self, dataset, run_dir, tmp_path, capsys,
                                                                monkeypatch):
        # the file changes before the split's parse: attach compares the digest of the bytes that parse read
        edited = tmp_path / "data"
        shutil.copytree(dataset, edited)
        ckpt = tmp_path / "checkpoint.ckgr"
        rewrite_metadata(run_dir / "checkpoint.ckgr", ckpt, lambda meta: meta["config"].update(
            {name: str(edited / f"{name}.tsv") for name in ("interactions", "user_attrs", "item_attrs")}))
        path = edited / "interactions.tsv"
        real_parse = cli.parse_interactions
        parses = []

        def edit_then_parse(*args, **kwargs):
            parses.append(args)  # the split's parse: drop one interaction first
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_interactions", edit_then_parse)
        no_world(monkeypatch)
        assert run("evaluate", "--checkpoint", ckpt) == 1
        captured = capsys.readouterr()
        assert len(parses) == 1 and captured.out == "" and f"another interactions file: {path} " in captured.err

    def test_failed_report_replace_keeps_the_previous_report(self, dataset, run_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "eval"
        flags = ["--checkpoint", run_dir / "checkpoint.ckgr", *data_flags(dataset), "--out", out]
        assert run("evaluate", *flags, "--k", "5") == 0
        before = (out / "eval.csv").read_bytes()
        real = os.replace

        def crash_on_report(src, dst):
            if os.path.basename(dst) == "eval.csv":
                raise OSError("simulated crash while writing eval.csv")
            return real(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_report)
        assert run("evaluate", *flags, "--k", "7") == 2
        assert "simulated crash" in capsys.readouterr().err
        assert (out / "eval.csv").read_bytes() == before
        assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


class TestRecommend:
    def test_prints_ranked_tsv(self, dataset, run_dir, capsys):
        code = run(
            "recommend", "--checkpoint", run_dir / "checkpoint.ckgr",
            *data_flags(dataset), "--user", "u0", "--k", "5",
        )
        assert code == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
        items = [r[1] for r in rows]
        assert len(set(items)) == 5 and all(re.fullmatch(r"i\d+", it) for it in items)
        scores = [float(r[2]) for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_printed_attention_checkpoint_with_widths_other_than_k_exits_1(self, dataset, tmp_path, capsys):
        trained = tmp_path / "trained"
        sets = ["--set", "d=8", "--set", "k=4", "--set", "layers=1", "--set", "dims=8", "--set", "epochs=1"]
        assert run("train", *data_flags(dataset), *sets, "--out", trained) == 0
        printed = tmp_path / "printed.ckgr"
        rewrite_metadata(trained / "checkpoint.ckgr", printed, lambda meta: meta.update(printed_attention=True))
        capsys.readouterr()
        code = run("recommend", "--checkpoint", printed, *data_flags(dataset), "--user", "u0")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fault:" not in err
        assert "k=4, got [8, 8]" in err

    USERS = ("u0", "u7", "u13")

    def recommend_lines(self, ckpt, dataset, capsys, user, k, *flags) -> tuple[str, str]:
        assert run("recommend", "--checkpoint", ckpt, *data_flags(dataset), "--user", user, "--k", k, *flags) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_moved_data_and_free_keys_serve_the_same_lines(self, dataset, run_dir, tmp_path, capsys, monkeypatch):
        # the same bytes at another path, and a key that shapes no world, serve the same lines without a build
        ckpt, moved = run_dir / "checkpoint.ckgr", tmp_path / "moved"
        shutil.copytree(dataset, moved)
        no_world(monkeypatch)
        for user in self.USERS:
            for k in (5, 20):  # 20 is more than the 15 items, so fewer lines than k
                served = self.recommend_lines(ckpt, dataset, capsys, user, k)
                assert served[1] == ""
                assert self.recommend_lines(ckpt, moved, capsys, user, k) == served
                assert self.recommend_lines(ckpt, dataset, capsys, user, k, "--set", "lr=0.5") == served
        assert len(self.recommend_lines(ckpt, dataset, capsys, "u0", 20)[0].splitlines()) < 15

    def test_served_scores_are_rows_of_the_model_scores(self, dataset, run_dir, capsys):
        world = cli._build_world(load_config(base=checkpoint.load(run_dir / "checkpoint.ckgr").meta["config"]))
        model, _ = checkpoint.attach(run_dir / "checkpoint.ckgr", world.kg_u, world.kg_i, world.align)
        scores = model_scores(model)
        for user in self.USERS:
            out, _ = self.recommend_lines(run_dir / "checkpoint.ckgr", dataset, capsys, user, 5)
            u = world.bg.user_vocab.id_of(user)
            for line in out.splitlines():
                _, item, score = line.split("\t")
                assert float(score) == scores[u, world.bg.item_vocab.id_of(item)]

    @pytest.mark.parametrize("flags, named", [
        (["--set", "id_order=sorted"], "id_order='first-seen', not id_order='sorted'"),
        (["--seed", "6"], "seed=7, not seed=6"),
    ], ids=["reordered-vocabulary", "reseeded-split"])
    def test_another_world_exits_1(self, dataset, run_dir, capsys, flags, named):
        code = run("recommend", "--checkpoint", run_dir / "checkpoint.ckgr", *data_flags(dataset), *flags,
                   "--user", "u0")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"trained with {named}" in captured.err

    def test_input_edited_between_calls_exits_1(self, dataset, run_dir, tmp_path, capsys):
        # the same process, the same paths: only the file's content tells the two calls apart
        edited = tmp_path / "data"
        shutil.copytree(dataset, edited)
        ckpt = tmp_path / "checkpoint.ckgr"
        rewrite_metadata(run_dir / "checkpoint.ckgr", ckpt, lambda meta: meta["config"].update(
            {name: str(edited / f"{name}.tsv") for name in ("interactions", "user_attrs", "item_attrs")}))
        argv = ["recommend", "--checkpoint", ckpt, "--user", "u0"]
        assert run(*argv) == 0
        first = capsys.readouterr().out
        assert first and run(*argv, *data_flags(dataset)) == 0
        assert capsys.readouterr().out == first
        swap_item_attributes(edited)
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"another item_attrs file: {edited / 'item_attrs.tsv'} " in captured.err

    def test_attribute_edit_keeping_the_counts_exits_1(self, dataset, run_dir, tmp_path, capsys):
        edited = tmp_path / "data"
        shutil.copytree(dataset, edited)
        swap_item_attributes(edited)
        code = run("recommend", "--checkpoint", run_dir / "checkpoint.ckgr", *data_flags(edited), "--user", "u0")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"another item_attrs file: {edited / 'item_attrs.tsv'} " in captured.err

    def test_unknown_user_exits_1(self, dataset, run_dir, capsys):
        code = run(
            "recommend", "--checkpoint", run_dir / "checkpoint.ckgr",
            *data_flags(dataset), "--user", "nobody",
        )
        assert code == 1
        assert "unknown user id" in capsys.readouterr().err



@pytest.fixture(scope="module")
def wide_run(tmp_path_factory):
    """A 300-user dataset and a 1-epoch checkpoint of it: three blocks of users, the last one partial."""
    data = tmp_path_factory.mktemp("wide")
    assert run("synth", "--out", data, "--users", "300", "--items", "40", "--factors", "3", "--per-user", "5",
               "--seed", "3") == 0
    out = tmp_path_factory.mktemp("wide_run")
    assert run("train", *data_flags(data), "--out", out, *TRAIN_SETS, "--set", "epochs=1") == 0
    ckpt = out / "checkpoint.ckgr"
    world = cli._build_world(load_config(base=checkpoint.load(ckpt).meta["config"]))
    assert world.align.n_users == 300
    return data, ckpt, world


class TestAlignedBlock:
    """`recommend` scores only the aligned block of users that holds its user."""

    IDS = (3, 200, 290)  # in the first block, in the middle one, and in the last, partial one (rows 256-299)

    def test_printed_scores_are_rows_of_the_model_scores(self, wide_run, capsys):
        data, ckpt, world = wide_run
        model, _ = checkpoint.attach(ckpt, world.kg_u, world.kg_i, world.align)
        scores = model_scores(model)
        tokens = world.bg.user_vocab.tokens()
        for u in self.IDS:
            assert run("recommend", "--checkpoint", ckpt, *data_flags(data), "--user", tokens[u], "--k", 40) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 40 - len(world.train_pairs[world.train_pairs[:, 0] == u])
            for line in lines:
                _, item, score = line.split("\t")
                assert float(score) == scores[u, world.bg.item_vocab.id_of(item)]  # repr round-trips the bits

    def test_one_block_is_scored(self, wide_run, capsys, monkeypatch):
        data, ckpt, world = wide_run
        blocks = []
        real = cli.score_block
        monkeypatch.setattr(cli, "score_block", lambda users, items, at: blocks.append(at) or real(users, items, at))
        tokens = world.bg.user_vocab.tokens()
        for u in self.IDS:
            assert run("recommend", "--checkpoint", ckpt, *data_flags(data), "--user", tokens[u]) == 0
            assert blocks == [u - u % RANK_BLOCK]
            blocks.clear()
        assert [u - u % RANK_BLOCK for u in self.IDS] == [0, 128, 256]

    def test_served_evaluate_ranks_the_full_product(self, wide_run, capsys):
        # the lines a single full users @ items.T product gives, as served evaluate printed them before blocks
        data, ckpt, world = wide_run
        serving = checkpoint.load(ckpt).serving
        train, test = truth_by_user(world.train_pairs), truth_by_user(world.test_pairs)
        seed = load_config(base=checkpoint.load(ckpt).meta["config"]).seed
        want = [
            f"{label}: precision@5={p:.4f} recall@5={r:.4f}"
            for label, scores in (
                ("model", serving.users @ serving.items.T),
                ("popularity", popularity_scores(world.train_pairs, 300, len(serving.items))),
                ("random", random_scores(seed, 300, len(serving.items))),
            )
            for p, r in [rank_and_score(scores, train, test, 5)]
        ]
        assert run("evaluate", "--checkpoint", ckpt, *data_flags(data)) == 0
        assert capsys.readouterr().out.splitlines() == want


def trained_depths(monkeypatch) -> list:
    """Depths of the models cli.train is handed, in call order."""
    depths = []
    real = cli.train

    def recording(model, *args, **kwargs):
        depths.append(model.stack_u.n_layers)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(cli, "train", recording)
    return depths


class TestSweepLayers:
    def check_sweep(self, dataset, out, capsys, monkeypatch, wanted: list) -> None:
        """Sweep the given depths; one trained model, printed line and CSV row per depth, in order."""
        depths = trained_depths(monkeypatch)
        code = run(
            "sweep-layers", *data_flags(dataset), "--l-values", ",".join(map(str, wanted)),
            "--set", "d=8", "--set", "k=8", "--set", "dims=8,8",
            "--set", "epochs=2", "--set", "top_k=5", "--seed", "7", "--out", out,
        )
        assert code == 0
        assert depths == wanted
        stdout = capsys.readouterr().out
        for l in wanted:
            assert re.search(rf"^L={l}: precision@5=", stdout, re.M)
        assert re.search(r"best depth by recall: L=\d \(data-dependent, reported not asserted\)", stdout)

        csv_lines = (out / "sweep.csv").read_text().splitlines()
        assert csv_lines[0] == "label,K,precision,recall,seed,wall_ms"
        rows = [line.split(",") for line in csv_lines[1:]]
        assert [row[0] for row in rows] == [f"L={l}" for l in wanted]
        for _, k, precision, recall, seed, _ in rows:
            assert (k, seed) == ("5", "7")
            assert 0.0 <= float(precision) <= 1.0 and 0.0 <= float(recall) <= 1.0

    def test_two_depth_sweep(self, dataset, tmp_path, capsys, monkeypatch):
        self.check_sweep(dataset, tmp_path / "sweep", capsys, monkeypatch, [1, 2])

    def test_single_depth_sweep(self, dataset, tmp_path, capsys, monkeypatch):
        self.check_sweep(dataset, tmp_path / "sweep", capsys, monkeypatch, [2])

    def test_bad_depth_fails_before_any_training(self, dataset, tmp_path, capsys, monkeypatch):
        depths = trained_depths(monkeypatch)
        code = run("sweep-layers", *data_flags(dataset), "--l-values", "1,5", "--out", tmp_path / "sweep")
        assert code == 1
        assert depths == []
        assert "layer count must lie in 1..4, got 5" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()


class TestNoTestUser:
    """Two users with two records each: the split keeps every record in train, so every metric is nan."""

    @pytest.fixture
    def interactions(self, tmp_path):
        path = tmp_path / "interactions.tsv"
        path.write_text("u1\ti1\t1\nu1\ti2\t1\nu2\ti1\t1\nu2\ti3\t1\n")
        return path

    def test_sweep_names_no_best_depth(self, interactions, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run("sweep-layers", "--interactions", interactions, *TRAIN_SETS, "--l-values", "1", "--out", out) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[:2] == [
            "L=1: precision@5=nan recall@5=nan",
            "no depth could be scored: no user has a test interaction",
        ]
        assert "best depth" not in captured.out and captured.err == ""
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [["L=1", "5", "nan", "nan"]]

    def test_evaluate_warns_once(self, interactions, tmp_path, capsys):
        assert run("train", "--interactions", interactions, *TRAIN_SETS, "--out", tmp_path / "run") == 0
        capsys.readouterr()
        out = tmp_path / "eval"
        assert run("evaluate", "--checkpoint", tmp_path / "run" / "checkpoint.ckgr", "--out", out) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: every metric is nan: no user has a test interaction\n"
        assert captured.out.splitlines()[:3] == [
            f"{label}: precision@5=nan recall@5=nan" for label in ("model", "popularity", "random")
        ]
        assert len((out / "eval.csv").read_text().splitlines()) == 4

    def test_train_says_why_val_recall_is_nan(self, interactions, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", "--interactions", interactions, "--set", "epochs=3", "--set", "layers=1", "--out", out) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: validation recall is nan: no user has a validation interaction, so no early stopping\n"
        )
        assert "(best epoch 2, val recall@10 nan)" in captured.out
        header, *rows = (out / "history.csv").read_text().splitlines()
        at = header.split(",").index("val_recall")
        assert [row.split(",")[at] for row in rows] == ["nan"] * 3


CHECKPOINT = ["--checkpoint", "{ran}/checkpoint.ckgr"]

# input files with one byte that is not UTF-8, at the offset each case names
NOT_UTF8 = {
    "interactions.tsv": b"u0\ti0\t1\nu1\ti\xe91\t1\n",
    "item_attrs.tsv": b"i0\tgenre\tcaf\xff\n",
    "manifest.txt": b"users = 20\nitems = \xe9\n",
    "run.cfg": b"lr = 0.01\n# caf\xff\n",
}

# case -> (CKGR_SEED or None, argv, a part of the error line); {data}, {ran},
# {bad} and {tmp} stand for the dataset, the trained run, the NOT_UTF8 files
# and a scratch directory
VALIDATION_FAILURES = {
    "unknown-set-key": (None, ["ingest", "--interactions", "{data}/interactions.tsv", "--set", "wobble=3"],
                        "unknown configuration key 'wobble'"),
    "synth-bad-env-seed": ("lots", ["synth", "--out", "{tmp}/s"], "CKGR_SEED is not an integer: 'lots'"),
    "synth-bad-env-seed-with-seed-flag": ("lots", ["synth", "--out", "{tmp}/s", "--seed", "7"],
                                          "CKGR_SEED is not an integer: 'lots'"),
    "train-nan-threshold": (None, ["train", "--interactions", "{data}/interactions.tsv", "--set", "threshold=nan",
                                   "--out", "{tmp}/t"], "threshold must be a number, got nan"),
    "synth-negative-seed": (None, ["synth", "--out", "{tmp}/s", "--seed", "-3"], "synth seed must be >= 0, got -3"),
    "synth-negative-env-seed": ("-1", ["synth", "--out", "{tmp}/s"], "CKGR_SEED must be >= 0, got -1"),
    "build-graph-negative-seed": (None, ["build-graph", "--interactions", "{data}/interactions.tsv", "--seed", "-1"],
                                  "seed must be >= 0, got -1"),
    "train-negative-seed": (None, ["train", "--interactions", "{data}/interactions.tsv", "--seed", "-1",
                                   "--out", "{tmp}/t"], "seed must be >= 0, got -1"),
    "train-negative-env-seed": ("-1", ["train", "--interactions", "{data}/interactions.tsv", "--out", "{tmp}/t"],
                                "CKGR_SEED must be >= 0, got -1"),
    "recommend-negative-env-seed": ("-1", ["recommend", *CHECKPOINT, "--interactions", "{data}/interactions.tsv",
                                           "--user", "u0"], "CKGR_SEED must be >= 0, got -1"),
    "train-negative-set-seed": (None, ["train", "--interactions", "{data}/interactions.tsv", "--set", "seed=-1",
                                       "--out", "{tmp}/t"], "seed must be >= 0, got -1"),
    "train-infinite-init-std": (None, ["train", "--interactions", "{data}/interactions.tsv", "--set", "init_std=inf",
                                       "--out", "{tmp}/t"], "init_std must be finite and positive, got inf"),
    "train-infinite-lr": (None, ["train", "--interactions", "{data}/interactions.tsv", "--set", "lr=inf",
                                 "--out", "{tmp}/t"], "lr must be finite and >= 0, got inf"),
    "train-infinite-reg": (None, ["train", "--interactions", "{data}/interactions.tsv", "--set", "reg=inf",
                                  "--out", "{tmp}/t"], "reg must be finite and >= 0, got inf"),
    "train-bad-env-seed": ("lots", ["train", "--interactions", "{data}/interactions.tsv", "--out", "{tmp}/t"],
                           "CKGR_SEED is not an integer: 'lots'"),
    "evaluate-k-0": (None, ["evaluate", *CHECKPOINT, "--interactions", "{data}/interactions.tsv", "--k", "0"],
                     "top_k must be >= 1, got 0"),
    "recommend-k-0": (None, ["recommend", *CHECKPOINT, "--interactions", "{data}/interactions.tsv",
                             "--user", "u0", "--k", "0"], "top_k must be >= 1, got 0"),
    "l-values-not-integers": (None, ["sweep-layers", "--interactions", "{data}/interactions.tsv", "--l-values", "1,x"],
                              "--l-values must be a comma-separated integer list, got '1,x'"),
    "l-values-empty": (None, ["sweep-layers", "--interactions", "{data}/interactions.tsv", "--l-values", ","],
                       "--l-values must be a comma-separated integer list, got ','"),
    "missing-input": (None, ["build-graph", "--interactions", "{tmp}/nope.tsv"], "No such file or directory"),
    "synth-out-is-a-file": (None, ["synth", "--out", "{data}/manifest.txt"], "File exists"),
    "train-out-under-a-file": (None, ["train", "--interactions", "{data}/interactions.tsv", *TRAIN_SETS,
                                      "--out", "{data}/manifest.txt/run"], "Not a directory"),
    "train-input-under-a-file": (None, ["train", "--interactions", "{data}/manifest.txt/x.tsv", "--out", "{tmp}/t"],
                                 "Not a directory"),
    "interactions-not-utf8": (None, ["ingest", "--interactions", "{bad}/interactions.tsv"],
                              "{bad}/interactions.tsv: not UTF-8: byte 0xe9 at offset 12"),
    "attributes-not-utf8": (None, ["train", "--interactions", "{data}/interactions.tsv", "--item-attrs",
                                   "{bad}/item_attrs.tsv", "--out", "{tmp}/t"],
                            "{bad}/item_attrs.tsv: not UTF-8: byte 0xff at offset 12"),
    "manifest-not-utf8": (None, ["build-graph", "--interactions", "{data}/interactions.tsv", "--manifest",
                                 "{bad}/manifest.txt"], "{bad}/manifest.txt: not UTF-8: byte 0xe9 at offset 19"),
    "config-not-utf8": (None, ["ingest", "--config", "{bad}/run.cfg", "--interactions", "{data}/interactions.tsv"],
                        "{bad}/run.cfg: not UTF-8: byte 0xff at offset 15"),
}


@pytest.fixture(scope="module")
def not_utf8(tmp_path_factory):
    out = tmp_path_factory.mktemp("not_utf8")
    for name, data in NOT_UTF8.items():
        (out / name).write_bytes(data)
    return out


@pytest.mark.parametrize("case", list(VALIDATION_FAILURES))
def test_validation_failures_exit_1(case, dataset, run_dir, not_utf8, tmp_path, monkeypatch, capsys):
    """The module docstring's contract: a validation problem exits 1 with an `error:` line, never a fault.

    It writes nothing either.
    """
    env_seed, argv, message = VALIDATION_FAILURES[case]
    if env_seed is not None:
        monkeypatch.setenv("CKGR_SEED", env_seed)
    places = {"data": dataset, "ran": run_dir, "bad": not_utf8, "tmp": tmp_path}
    assert run(*[a.format(**places) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message.format(**places) in captured.err
    assert "fault:" not in captured.err
    assert not any(tmp_path.iterdir())


# stored config or input_digests -> (the metadata change, a part of the error line)
MALFORMED_STORED = {
    "epochs-a-string": (lambda meta: meta["config"].update(epochs="3"), "epochs is '3'"),
    "dims-an-int": (lambda meta: meta["config"].update(dims=5), "dims is 5"),
    "top_k-null": (lambda meta: meta["config"].update(top_k=None), "top_k is None"),
    "lr-a-word": (lambda meta: meta["config"].update(lr="fast"), "lr is 'fast'"),
    "config-a-list": (lambda meta: meta.update(config=[]), "metadata config must be an object"),
    "input_digests-a-list": (lambda meta: meta.update(input_digests=[]), "metadata input_digests must map"),
}


@pytest.mark.parametrize("command", [["evaluate"], ["recommend", "--user", "u0"]], ids=["evaluate", "recommend"])
@pytest.mark.parametrize("case", list(MALFORMED_STORED))
def test_malformed_stored_metadata_exits_1(dataset, run_dir, tmp_path, capsys, case, command):
    change, message = MALFORMED_STORED[case]
    bad = tmp_path / "bad.ckgr"
    rewrite_metadata(run_dir / "checkpoint.ckgr", bad, change)
    assert run(*command, "--checkpoint", bad, *data_flags(dataset)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and message in captured.err


def test_every_command_but_synth_takes_the_shared_flags():
    """The config and data-path flags are one set: every command but synth takes all seven, each alike."""
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    shared = ("--config", "--set", "--seed", "--interactions", "--user-attrs", "--item-attrs", "--manifest")

    def described(parser):
        return [(a.dest, a.type, a.help, type(a)) for a in map(parser._option_string_actions.get, shared) if a]

    commands = [name for name in subparsers if name != "synth"]
    assert commands == ["ingest", "build-graph", "train", "evaluate", "recommend", "sweep-layers"]
    want = described(subparsers["ingest"])
    assert [dest for dest, *_ in want] == ["config", "set", "seed", "interactions", "user_attrs", "item_attrs",
                                           "manifest"]
    assert all(described(subparsers[name]) == want for name in commands)
