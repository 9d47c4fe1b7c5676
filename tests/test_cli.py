"""Command-line pipeline, driven in-process through main(argv)."""

import json
import re

import pytest

from ckgrec import checkpoint, cli
from ckgrec.cli import main
from ckgrec.model import DualModel

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


@pytest.fixture(scope="module")
def run_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run("train", *data_flags(dataset), "--out", out, *TRAIN_SETS, "--seed", "7")
    assert code == 0
    return out


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

    def test_bad_env_seed_exits_1(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CKGR_SEED", "lots")
        code = run(
            "train", "--interactions", dataset / "interactions.tsv",
            "--out", tmp_path / "x",
        )
        assert code == 1
        assert "CKGR_SEED" in capsys.readouterr().err


class TestEvaluate:
    def test_reports_model_and_baselines(self, dataset, run_dir, tmp_path, capsys):
        # a checkpoint whose config metadata still names the removed `workers` key
        legacy = tmp_path / "legacy.ckgr"
        table_u, stack_u, table_i, stack_i, meta = checkpoint.load(run_dir / "checkpoint.ckgr")
        meta["config"]["workers"] = 1
        checkpoint.save(DualModel(None, None, table_u, table_i, stack_u, stack_i, None), legacy, meta)
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

    def test_reads_the_checkpoint_once(self, dataset, run_dir, monkeypatch):
        reads = []
        real = checkpoint.load
        monkeypatch.setattr(checkpoint, "load", lambda path: reads.append(path) or real(path))
        ckpt = run_dir / "checkpoint.ckgr"
        assert run("evaluate", "--checkpoint", ckpt, *data_flags(dataset)) == 0
        assert run("recommend", "--checkpoint", ckpt, *data_flags(dataset), "--user", "u0") == 0
        assert [str(path) for path in reads] == [str(ckpt)] * 2

    def test_flags_beat_checkpoint_metadata_beats_env_seed(self, dataset, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = 0.005\nepochs = 1\nd = 8\nk = 8\nlayers = 1\ndims = 8\n")
        trained = tmp_path / "trained"
        assert run("train", *data_flags(dataset), "--config", cfg, "--seed", "4", "--out", trained) == 0
        monkeypatch.setenv("CKGR_SEED", "9")
        out = tmp_path / "eval"
        code = run(
            "evaluate", "--checkpoint", trained / "checkpoint.ckgr", *data_flags(dataset),
            "--set", "min_interactions=1", "--out", out,
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["lr"] == 0.005  # checkpoint metadata
        assert manifest["seed"] == manifest["config"]["seed"] == 4  # metadata beats CKGR_SEED
        assert manifest["config"]["min_interactions"] == 1  # --set beats metadata

    def test_missing_checkpoint_exits_1(self, dataset, tmp_path, capsys):
        code = run(
            "evaluate", "--checkpoint", tmp_path / "no.ckgr",
            "--interactions", dataset / "interactions.tsv",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


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

    def test_unknown_user_exits_1(self, dataset, run_dir, capsys):
        code = run(
            "recommend", "--checkpoint", run_dir / "checkpoint.ckgr",
            *data_flags(dataset), "--user", "nobody",
        )
        assert code == 1
        assert "unknown user id" in capsys.readouterr().err


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


CHECKPOINT = ["--checkpoint", "{ran}/checkpoint.ckgr"]

# case -> (CKGR_SEED or None, argv, a part of the error line); {data}, {ran}
# and {tmp} stand for the dataset, the trained run and a scratch directory
VALIDATION_FAILURES = {
    "unknown-set-key": (None, ["ingest", "--interactions", "{data}/interactions.tsv", "--set", "wobble=3"],
                        "unknown configuration key 'wobble'"),
    "synth-bad-env-seed": ("lots", ["synth", "--out", "{tmp}/s"], "CKGR_SEED is not an integer: 'lots'"),
    "synth-bad-env-seed-with-seed-flag": ("lots", ["synth", "--out", "{tmp}/s", "--seed", "7"],
                                          "CKGR_SEED is not an integer: 'lots'"),
    "train-bad-env-seed": ("lots", ["train", "--interactions", "{data}/interactions.tsv", "--out", "{tmp}/t"],
                           "CKGR_SEED is not an integer: 'lots'"),
    "evaluate-k-0": (None, ["evaluate", *CHECKPOINT, "--interactions", "{data}/interactions.tsv", "--k", "0"],
                     "K must be >= 1, got 0"),
    "recommend-k-0": (None, ["recommend", *CHECKPOINT, "--interactions", "{data}/interactions.tsv",
                             "--user", "u0", "--k", "0"], "K must be >= 1, got 0"),
    "l-values-not-integers": (None, ["sweep-layers", "--interactions", "{data}/interactions.tsv", "--l-values", "1,x"],
                              "--l-values must be a comma-separated integer list, got '1,x'"),
    "l-values-empty": (None, ["sweep-layers", "--interactions", "{data}/interactions.tsv", "--l-values", ","],
                       "--l-values must be a comma-separated integer list, got ','"),
    "missing-input": (None, ["build-graph", "--interactions", "{tmp}/nope.tsv"], "No such file or directory"),
}


@pytest.mark.parametrize("case", list(VALIDATION_FAILURES))
def test_validation_failures_exit_1(case, dataset, run_dir, tmp_path, monkeypatch, capsys):
    """The module docstring's contract: a validation problem exits 1 with an `error:` line, never a fault."""
    env_seed, argv, message = VALIDATION_FAILURES[case]
    if env_seed is not None:
        monkeypatch.setenv("CKGR_SEED", env_seed)
    assert run(*[a.format(data=dataset, ran=run_dir, tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert "fault:" not in captured.err
