"""Run configuration: file parsing, validation, overrides, echoing."""

import pytest

from ckgrec.config import RunConfig, assignments, load_config, parse_assignments
from ckgrec.errors import ConfigError
from ckgrec.ingest import verify_manifest


class TestDefaults:
    def test_baseline_values(self):
        cfg = RunConfig()
        assert cfg.d == 64 and cfg.k == 64 and cfg.layers == 2
        assert cfg.dims == (64, 32, 16)
        assert cfg.lr == 0.001 and cfg.reg == 1e-5
        assert cfg.ratios == (0.8, 0.1, 0.1)
        assert cfg.shared_weights is True
        cfg.validate()

    def test_to_dict_round_trips_types(self):
        d = RunConfig().to_dict()
        assert d["dims"] == [64, 32, 16]
        assert isinstance(d["lr"], float) and isinstance(d["epochs"], int)


class TestFileParsing:
    def test_basic_assignments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# experiment\nlr = 0.01\nlayers = 3\ndims = 64,16,8,4\nseed = 9\n")
        cfg = load_config(p)
        assert cfg.lr == 0.01 and cfg.layers == 3
        assert cfg.dims == (64, 16, 8, 4) and cfg.seed == 9

    def test_unknown_key_rejected_with_location(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("lr = 0.01\nwobble = 3\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            load_config(p)

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("lr 0.01\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1"):
            load_config(p)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("\ufeffepochs = 3\n", encoding="utf-8")
        assert load_config(path).epochs == 3

    def test_dotted_aliases(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "aggregator.shared_weights = false\n"
            "attention.printed_form = false\n"
            "split.train = 0.7\nsplit.val = 0.2\nsplit.test = 0.1\n"
        )
        cfg = load_config(p)
        assert cfg.shared_weights is False
        assert cfg.ratios == (0.7, 0.2, 0.1)

    def test_bool_coercion(self):
        cfg = load_config(overrides=["corrupt_heads=true"])
        assert cfg.corrupt_heads is True
        with pytest.raises(ConfigError):
            load_config(overrides=["corrupt_heads=maybe"])

    def test_overrides_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("lr = 0.01\n")
        cfg = load_config(p, overrides=["lr=0.5"])
        assert cfg.lr == 0.5

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["epochs=ten"])

    def test_errors_name_the_key_given(self):
        with pytest.raises(ConfigError, match="^aggregator.shared_weights expects a boolean, got 'maybe'$"):
            load_config(overrides=["aggregator.shared_weights=maybe"])

    def test_hash_in_override_is_part_of_the_value(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("interactions = data#1.tsv  # the file's comment\n")
        assert load_config(p).interactions == "data"
        assert load_config(p, overrides=["interactions=data#1.tsv"]).interactions == "data#1.tsv"


class TestBase:
    def test_base_below_file_and_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("lr = 0.01\n")
        base = {"lr": 0.2, "epochs": 7, "seed": 3}
        cfg = load_config(p, overrides=["seed=4"], base=base)
        assert (cfg.lr, cfg.epochs, cfg.seed) == (0.01, 7, 4)

    def test_echoed_config_round_trips(self):
        # a checkpoint echoes to_dict(): dims as a list, plus keys a later
        # version may have dropped
        echoed = {**RunConfig(dims=(8, 4), layers=1).to_dict(), "workers": 1}
        cfg = load_config(base=echoed)
        assert cfg == RunConfig(dims=(8, 4), layers=1)
        assert isinstance(cfg.dims, tuple)

    def test_base_is_validated(self):
        with pytest.raises(ConfigError, match="layer count"):
            load_config(base={"layers": 9})


class TestValidation:
    def test_layer_range(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["layers=0"])
        with pytest.raises(ConfigError):
            load_config(overrides=["layers=5"])

    def test_nan_threshold(self):
        # NaN equals no value: a checkpoint trained with it could never bind again
        with pytest.raises(ConfigError, match="threshold must be a number, got nan"):
            load_config(overrides=["threshold=nan"])
        assert load_config(overrides=["threshold=inf"]).threshold == float("inf")

    def test_slope_range(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["slope=1.5"])

    def test_ratio_sum(self):
        with pytest.raises(ConfigError, match="must sum to 1"):
            load_config(overrides=["split.train=0.9", "split.val=0.2", "split.test=0.1"])
        # the field names are not configuration keys
        with pytest.raises(ConfigError, match="unknown configuration key 'train_ratio'"):
            load_config(overrides=["train_ratio=0.9", "val_ratio=0.2", "test_ratio=0.1"])

    def test_printed_attention_needs_k_widths(self):
        with pytest.raises(ConfigError, match="width"):
            load_config(overrides=["attention.printed_form=true", "dims=64,32,16"])
        cfg = load_config(
            overrides=["attention.printed_form=true", "d=16", "k=16", "dims=16,16,8"]
        )
        assert cfg.printed_attention is True


class TestAssignments:
    LINES = "  {0} = 3   # spaced, with a comment\n\n# a comment line\n{1}=4#inline\n\t{2} =9 \n"

    def test_manifest_and_config_file_read_alike(self, tmp_path):
        manifest, config = tmp_path / "manifest.txt", tmp_path / "run.cfg"
        manifest.write_text(self.LINES.format("users", "items", "interactions"))
        config.write_text(self.LINES.format("d", "k", "epochs"))
        read = {}
        for path in (manifest, config):
            with open(path, encoding="utf-8") as fh:
                read[path] = list(assignments(fh, str(path)))
        assert read[manifest] == [(1, "users", "3"), (4, "items", "4"), (5, "interactions", "9")]
        assert read[config] == [(1, "d", "3"), (4, "k", "4"), (5, "epochs", "9")]
        verify_manifest(manifest, {"users": 3, "items": 4, "interactions": 9})
        cfg = load_config(config)
        assert (cfg.d, cfg.k, cfg.epochs) == (3, 4, 9)


class TestParseAssignments:
    def test_comments_and_blanks(self):
        got = parse_assignments(["# note", "", "lr = 0.1"], "inline")
        assert got == {"lr": 0.1}

    def test_reports_source(self):
        with pytest.raises(ConfigError, match="inline:1"):
            parse_assignments(["nonsense"], "inline")
