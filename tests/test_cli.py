"""End-to-end CLI tests on tiny data: exit codes, file outputs, and
byte-parity with direct library calls."""

import csv
import json
import shutil

import numpy as np
import pytest
import scipy.io.wavfile

from msa_forge import extractors
from msa_forge.bundle import read_bundle, write_bundle
from msa_forge.cli import cli_main
from msa_forge.models import batch_from_bundle, load_checkpoint
from msa_forge.robustness import PerturbationSpec, perturb_batch
from msa_forge.synthetic import make_synthetic_bundle
from msa_forge.trainer import EVAL_BATCH_SIZE, _evaluate, get_config_regression, multi_seed_run

SR = 16000


@pytest.fixture(scope="module")
def tiny_bundle_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "tiny"
    bundle = make_synthetic_bundle(n_train=24, n_valid=8, n_test=10, seq_len=6,
                                   feature_dim=4, seed=0)
    write_bundle(bundle, path)
    return path


def fast_flags():
    return ["--set", "max_epochs=4", "--set", "patience=4",
            "--set", "dropout=0.0", "--set", "batch_size=8",
            "--set", 'hidden_dims={"text":6,"audio":6,"vision":6}',
            "--set", "post_fusion_dim=6"]


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage(self, capsys):
        assert cli_main(["report", "--nope"]) == 1

    def test_no_subcommand_is_usage(self):
        assert cli_main([]) == 1

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0

    def test_report_on_empty_dir_is_validation(self, tmp_path, capsys):
        assert cli_main(["report", "--runs", str(tmp_path), "--style", "table4"]) == 2
        assert "no aggregate.json" in capsys.readouterr().err

    def test_bad_bundle_is_validation(self, tmp_path):
        assert cli_main(["train", "--bundle", str(tmp_path / "none"),
                         "--model", "tfn", "--out", str(tmp_path / "runs")]) == 2

    def test_corrupted_bundle_header_is_validation(self, tmp_path, tiny_bundle_dir):
        broken = tmp_path / "broken"
        shutil.copytree(tiny_bundle_dir, broken)
        blob = bytearray((broken / "audio.bin").read_bytes())
        blob[:4] = b"XXXX"
        (broken / "audio.bin").write_bytes(bytes(blob))
        assert cli_main(["train", "--bundle", str(broken), "--model", "lf_dnn",
                         "--out", str(tmp_path / "runs")]) == 2

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["modalities"][0].pop("name"),
        lambda doc: doc["modalities"].__setitem__(0, "text"),
        lambda doc: doc.__setitem__("modalities", 3),
        lambda doc: doc["samples"][0].__setitem__("lengths", [6, 6, 6]),
        lambda doc: doc["samples"][0].__setitem__("label_t", "x"),
        lambda doc: doc["modalities"][0].__setitem__("max_len", "6"),
        lambda doc: doc["samples"][0].__setitem__("label_m", "0.5"),
        lambda doc: doc["samples"][0].__setitem__("label_m", True),
        lambda doc: doc["samples"][0].__setitem__("label_a", False),
        lambda doc: doc.__setitem__("label_range", ["-3", 3]),
    ], ids=["row_without_name", "row_is_string", "modalities_not_list", "lengths_is_list",
            "label_t_not_number", "max_len_is_string", "label_m_is_numeric_string",
            "label_m_is_bool", "label_a_is_bool", "label_range_is_string"])
    def test_malformed_manifest_is_validation(self, tmp_path, tiny_bundle_dir, capsys, corrupt):
        broken = tmp_path / "broken"
        shutil.copytree(tiny_bundle_dir, broken)
        doc = json.loads((broken / "manifest.json").read_text())
        corrupt(doc)
        (broken / "manifest.json").write_text(json.dumps(doc))
        assert cli_main(["train", "--bundle", str(broken), "--model", "lf_dnn",
                         "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "Traceback" not in err

    def test_unknown_model_is_validation(self, tmp_path, tiny_bundle_dir):
        assert cli_main(["train", "--bundle", str(tiny_bundle_dir),
                         "--model", "gpt17", "--out", str(tmp_path / "runs")]) == 2


class TestTrainCli:
    def test_single_seed_run_writes_run_dir(self, tmp_path, tiny_bundle_dir, capsys):
        code = cli_main(["train", "--bundle", str(tiny_bundle_dir), "--model", "lf_dnn",
                         "--seeds", "1111", "--out", str(tmp_path / "runs"),
                         *fast_flags()])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        run_dir = tmp_path / "runs" / "lf_dnn"
        stamped = list(run_dir.iterdir())
        assert len(stamped) == 1
        assert (stamped[0] / "seed_1111" / "history.jsonl").exists()
        assert (stamped[0] / "aggregate.json").exists()
        assert payload["seeds"] == [1111]

    def test_cli_history_matches_library_bytes(self, tmp_path, tiny_bundle_dir):
        code = cli_main(["train", "--bundle", str(tiny_bundle_dir), "--model", "tfn",
                         "--seeds", "7", "--out", str(tmp_path / "cli_runs"),
                         *fast_flags()])
        assert code == 0
        (cli_dir,) = (tmp_path / "cli_runs" / "tfn").iterdir()
        cli_history = (cli_dir / "seed_7" / "history.jsonl").read_bytes()

        bundle = read_bundle(tiny_bundle_dir)
        config = get_config_regression("tfn", bundle.manifest.dataset_name)
        config["max_epochs"] = 4
        config["patience"] = 4
        config["dropout"] = 0.0
        config["batch_size"] = 8
        config["hidden_dims"] = {"text": 6, "audio": 6, "vision": 6}
        config["post_fusion_dim"] = 6
        config.seeds = [7]
        multi_seed_run(config, bundle, run_dir=tmp_path / "lib_runs")
        lib_history = (tmp_path / "lib_runs" / "seed_7" / "history.jsonl").read_bytes()
        assert cli_history == lib_history

    def test_repeat_invocations_byte_identical(self, tmp_path, tiny_bundle_dir):
        argv = ["train", "--bundle", str(tiny_bundle_dir), "--model", "lf_dnn",
                "--seeds", "1111", *fast_flags()]
        assert cli_main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(argv + ["--out", str(tmp_path / "b")]) == 0
        (dir_a,) = (tmp_path / "a" / "lf_dnn").iterdir()
        (dir_b,) = (tmp_path / "b" / "lf_dnn").iterdir()
        ha = (dir_a / "seed_1111" / "history.jsonl").read_bytes()
        hb = (dir_b / "seed_1111" / "history.jsonl").read_bytes()
        assert ha == hb


class TestConfigParsing:
    """Bad config input ends with a usage or validation exit, never a
    traceback."""

    def train(self, tmp_path, tiny_bundle_dir, *flags):
        return cli_main(["train", "--bundle", str(tiny_bundle_dir), "--model", "lf_dnn",
                         "--out", str(tmp_path / "runs"), *flags])

    def test_train_config_invalid_json(self, tmp_path, tiny_bundle_dir, capsys):
        (tmp_path / "cfg.json").write_text("{not json")
        assert self.train(tmp_path, tiny_bundle_dir, "--config", str(tmp_path / "cfg.json")) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err

    def test_train_config_unknown_key(self, tmp_path, tiny_bundle_dir, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"no_such_key": 1}))
        assert self.train(tmp_path, tiny_bundle_dir, "--config", str(tmp_path / "cfg.json")) == 1
        err = capsys.readouterr().err
        assert "no_such_key" in err and "Traceback" not in err

    def test_train_set_loss_is_unknown_key(self, tmp_path, tiny_bundle_dir, capsys):
        # training always minimizes L1; there is no loss field to set
        assert self.train(tmp_path, tiny_bundle_dir, "--set", "loss=l1") == 1
        err = capsys.readouterr().err
        assert "unknown config key 'loss'" in err and "Traceback" not in err

    def test_train_set_bad_value(self, tmp_path, tiny_bundle_dir, capsys):
        assert self.train(tmp_path, tiny_bundle_dir, "--set", "batch_size=abc") == 1
        err = capsys.readouterr().err
        assert "batch_size" in err and "Traceback" not in err

    def test_train_set_string_for_dict_field(self, tmp_path, tiny_bundle_dir, capsys):
        assert self.train(tmp_path, tiny_bundle_dir, "--set", "hidden_dims=abc") == 1
        err = capsys.readouterr().err
        assert "hidden_dims" in err and "Traceback" not in err

    @pytest.mark.parametrize("override", ["optimizer=3", "model=tfn", "feature_dims=abc",
                                          "hidden_dims=[4]"])
    def test_train_set_rejects_section_or_non_dict(self, tmp_path, tiny_bundle_dir, capsys,
                                                   override):
        # a config section is not a leaf; a dict field, resolved from the bundle
        # (feature_dims) or not (hidden_dims), takes only a dict
        assert self.train(tmp_path, tiny_bundle_dir, "--set", override) == 1
        err = capsys.readouterr().err
        assert override.split("=")[0] in err and "Traceback" not in err

    @pytest.mark.parametrize("override", ["batch_size=3.7", "max_epochs=true",
                                          "optimizer.lr=true", 'batch_size="32"',
                                          'hidden_dims={"text":2.5,"audio":4,"vision":4}',
                                          'feature_dims={"text":true}',
                                          'hidden_dims={"text":"4"}'])
    def test_train_set_rejects_bool_or_fraction(self, tmp_path, tiny_bundle_dir, capsys,
                                                override):
        # converting would store batch_size 3, max_epochs 1 and lr 1.0; a
        # number field takes no string either, as a checkpoint manifest does
        # not; each value of a modality -> size dict follows the same rule
        assert self.train(tmp_path, tiny_bundle_dir, "--set", override) == 1
        err = capsys.readouterr().err
        assert override.split("=")[0] in err and "Traceback" not in err

    def test_train_config_file_dict_value_follows_scalar_rule(self, tmp_path, tiny_bundle_dir,
                                                              capsys):
        (tmp_path / "cfg.json").write_text(
            json.dumps({"hidden_dims": {"text": 2.5, "audio": 4, "vision": 4}}))
        assert self.train(tmp_path, tiny_bundle_dir, "--config", str(tmp_path / "cfg.json")) == 1
        err = capsys.readouterr().err
        assert "hidden_dims" in err and "Traceback" not in err

    @pytest.mark.parametrize("override", ["attn_heads=0", "attn_heads=-2", "attn_layers=0",
                                          "attn_layers=-1"])
    def test_train_rejects_attention_sizes_below_one(self, tmp_path, tiny_bundle_dir, capsys,
                                                     override):
        # zero heads would divide by zero; zero layers would train mult with no attention
        assert cli_main(["train", "--bundle", str(tiny_bundle_dir), "--model", "mult",
                         "--out", str(tmp_path / "runs"), "--set", override]) == 2
        err = capsys.readouterr().err
        assert f"{override.split('=')[0]} must be >= 1" in err and "Traceback" not in err

    def test_train_negative_seed(self, tmp_path, tiny_bundle_dir, capsys):
        assert self.train(tmp_path, tiny_bundle_dir, "--seeds", "-3") == 2
        err = capsys.readouterr().err
        assert "seeds" in err and "Traceback" not in err

    def test_extract_config_invalid_json(self, tmp_path, capsys):
        (tmp_path / "extract.json").write_text("[1,")
        assert cli_main(["extract", "--data", str(tmp_path), "--labels",
                         str(tmp_path / "labels.csv"), "--config",
                         str(tmp_path / "extract.json"), "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err


class TestExtractLabelCsv:
    """The label CSV is checked, whole, before any clip is extracted."""

    def extract(self, tmp_path, monkeypatch, rows):
        data = tmp_path / "data"
        data.mkdir()
        for i in range(2):
            (data / f"v{i}.csv").write_text("AU01,AU02\n0.5,0.25\n1.0,0.0\n")
        with open(tmp_path / "labels.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["id", "split", "label_m", "label_t", "vision_path"],
                                      *rows])
        (tmp_path / "extract.json").write_text(
            json.dumps({"vision": {"kind": "ingest_csv", "params": {}}}))
        extracted = []
        real = extractors._extract_one
        monkeypatch.setattr(extractors, "_extract_one",
                            lambda *a, **k: extracted.append(a) or real(*a, **k))
        code = cli_main(["extract", "--data", str(data), "--labels", str(tmp_path / "labels.csv"),
                         "--config", str(tmp_path / "extract.json"), "--out",
                         str(tmp_path / "bundle")])
        return code, extracted

    def test_good_rows_extract(self, tmp_path, monkeypatch):
        code, extracted = self.extract(tmp_path, monkeypatch, [
            ["s0", "train", "0.5", "", "v0.csv"], ["s1", "test", "-1", "2", "v1.csv"]])
        assert code == 0 and len(extracted) == 2
        assert read_bundle(tmp_path / "bundle").manifest.samples[1].label_t == 2.0

    def test_non_numeric_label_m(self, tmp_path, monkeypatch, capsys):
        code, extracted = self.extract(tmp_path, monkeypatch, [
            ["s0", "train", "0.5", "", "v0.csv"], ["s1", "test", "high", "", "v1.csv"]])
        err = capsys.readouterr().err
        assert code == 2 and extracted == [] and "Traceback" not in err
        assert "labels.csv" in err and "row 3" in err and "'label_m'" in err

    def test_non_numeric_label_t(self, tmp_path, monkeypatch, capsys):
        code, extracted = self.extract(tmp_path, monkeypatch, [
            ["s0", "train", "0.5", "n/a", "v0.csv"], ["s1", "test", "1", "", "v1.csv"]])
        err = capsys.readouterr().err
        assert code == 2 and extracted == [] and "Traceback" not in err
        assert "labels.csv" in err and "row 2" in err and "'label_t'" in err

    def test_short_row_without_path_cell(self, tmp_path, monkeypatch, capsys):
        code, extracted = self.extract(tmp_path, monkeypatch, [
            ["s0", "train", "0.5", "", "v0.csv"], ["s1", "test", "1", ""]])
        err = capsys.readouterr().err
        assert code == 2 and extracted == [] and "Traceback" not in err
        assert "labels.csv" in err and "row 3" in err and "'vision_path'" in err


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, tiny_bundle_dir):
    out = tmp_path_factory.mktemp("trained")
    code = cli_main(["train", "--bundle", str(tiny_bundle_dir), "--model", "lf_dnn",
                     "--seeds", "1111", "--out", str(out), *fast_flags()])
    assert code == 0
    (stamped,) = (out / "lf_dnn").iterdir()
    return stamped


class TestEvalCli:
    def test_eval_writes_metrics_projection_curves(self, tmp_path, tiny_bundle_dir,
                                                   trained_run):
        ckpt = trained_run / "seed_1111" / "checkpoint"
        out = tmp_path / "eval"
        code = cli_main(["eval", "--checkpoint", str(ckpt), "--bundle",
                         str(tiny_bundle_dir), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc["metrics"]) >= {"acc2", "f1", "mae", "corr"}
        rows = (out / "projection.csv").read_text().strip().splitlines()
        assert rows[0] == "id,x,y,z,label,pred"
        assert len(rows) == 11  # 10 test samples
        assert (out / "curves.csv").exists()

    def test_eval_scores_in_eval_batches(self, tmp_path, monkeypatch):
        bundle = make_synthetic_bundle()
        write_bundle(bundle, tmp_path / "bundle")
        config = get_config_regression("lf_dnn", bundle.manifest.dataset_name)
        config["max_epochs"] = 1
        config.seeds = [1111]
        multi_seed_run(config, bundle, run_dir=tmp_path / "run")
        ckpt = tmp_path / "run" / "seed_1111" / "checkpoint"
        model, _ = load_checkpoint(ckpt)
        rows = []
        forward = type(model).forward

        def spy(self, batch, train=False):
            rows.append(batch.size)
            return forward(self, batch, train)

        monkeypatch.setattr(type(model), "forward", spy)
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle",
                         str(tmp_path / "bundle"), "--out", str(tmp_path / "eval"),
                         "--split", "all"]) == 0
        monkeypatch.undo()
        assert sum(rows) == bundle.n == 1000
        assert max(rows) <= EVAL_BATCH_SIZE
        doc = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert doc["metrics"] == _evaluate(model, bundle)[0].as_dict()

    def test_eval_tagged_report(self, tmp_path, tiny_bundle_dir, trained_run):
        ckpt = trained_run / "seed_1111" / "checkpoint"
        out = tmp_path / "evalt"
        code = cli_main(["eval", "--checkpoint", str(ckpt), "--bundle",
                         str(tiny_bundle_dir), "--out", str(out), "--tagged",
                         "--snr-db", "0", "--drop", "audio"])
        assert code == 0
        doc = json.loads((out / "tagged_report.json").read_text())
        assert "noise" in doc["report"]["rows"]
        assert "missing" in doc["report"]["rows"]

    def test_eval_truncated_params_is_validation(self, tmp_path, tiny_bundle_dir,
                                                 trained_run, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_run / "seed_1111" / "checkpoint", ckpt)
        raw = (ckpt / "params.bin").read_bytes()
        (ckpt / "params.bin").write_bytes(raw[:len(raw) // 2])
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle",
                         str(tiny_bundle_dir), "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "params.bin" in err and "Traceback" not in err

    def test_eval_invalid_manifest_is_validation(self, tmp_path, tiny_bundle_dir,
                                                 trained_run, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_run / "seed_1111" / "checkpoint", ckpt)
        (ckpt / "manifest.json").write_text("{not json")
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle",
                         str(tiny_bundle_dir), "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "Traceback" not in err

    def _edited_checkpoint(self, tmp_path, trained_run, key, value):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_run / "seed_1111" / "checkpoint", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["config"][key] = value
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        return ckpt

    @pytest.mark.parametrize("key, value", [
        ("post_fusion_dim", True), ("seed", 1.5), ("feature_dims", {"text": 3.5}),
        ("feature_dims", {"text": True}),
        ("hidden_dims", {"text": 2.5, "audio": 6, "vision": 6})])
    def test_eval_mistyped_manifest_value_is_validation(self, tmp_path, tiny_bundle_dir,
                                                        trained_run, capsys, key, value):
        ckpt = self._edited_checkpoint(tmp_path, trained_run, key, value)
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle",
                         str(tiny_bundle_dir), "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "Traceback" not in err

    def test_eval_whole_float_in_manifest_loads_as_int(self, tmp_path, tiny_bundle_dir,
                                                       trained_run, capsys):
        original = trained_run / "seed_1111" / "checkpoint"
        dim = json.loads((original / "manifest.json").read_text())["config"]["post_fusion_dim"]
        ckpt = self._edited_checkpoint(tmp_path, trained_run, "post_fusion_dim", float(dim))
        model, _ = load_checkpoint(ckpt)
        assert type(model.config.post_fusion_dim) is int
        for name, path in (("edited", ckpt), ("original", original)):
            assert cli_main(["eval", "--checkpoint", str(path), "--bundle",
                             str(tiny_bundle_dir), "--out", str(tmp_path / name)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert ((tmp_path / "edited" / "metrics.json").read_bytes()
                == (tmp_path / "original" / "metrics.json").read_bytes())

    def test_eval_whole_float_dims_in_manifest_load_as_int(self, tmp_path, tiny_bundle_dir,
                                                           trained_run, capsys):
        original = trained_run / "seed_1111" / "checkpoint"
        dims = json.loads((original / "manifest.json").read_text())["config"]["feature_dims"]
        ckpt = self._edited_checkpoint(tmp_path, trained_run, "feature_dims",
                                       {m: float(d) for m, d in dims.items()})
        model, _ = load_checkpoint(ckpt)
        assert model.config.feature_dims == dims
        assert all(type(d) is int for d in model.config.feature_dims.values())
        for name, path in (("edited", ckpt), ("original", original)):
            assert cli_main(["eval", "--checkpoint", str(path), "--bundle",
                             str(tiny_bundle_dir), "--out", str(tmp_path / name)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert ((tmp_path / "edited" / "metrics.json").read_bytes()
                == (tmp_path / "original" / "metrics.json").read_bytes())

    def test_eval_tagged_negative_seed(self, tmp_path, tiny_bundle_dir, trained_run, capsys):
        ckpt = trained_run / "seed_1111" / "checkpoint"
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle", str(tiny_bundle_dir),
                         "--out", str(tmp_path / "e"), "--tagged", "--snr-db", "0",
                         "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    def test_predict_without_record_needs_config(self, tmp_path, trained_run, capsys):
        # trained on a synthetic bundle, so the checkpoint records no extractors
        ckpt = trained_run / "seed_1111" / "checkpoint"
        assert "extractors" not in json.loads((ckpt / "manifest.json").read_text())
        assert cli_main(["predict", "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert "--config" in err and "Traceback" not in err

    def test_eval_malformed_history_is_validation(self, tmp_path, tiny_bundle_dir,
                                                  trained_run, capsys):
        # eval exports the curves of the history.jsonl next to the checkpoint
        run = tmp_path / "run"
        shutil.copytree(trained_run / "seed_1111", run)
        (run / "history.jsonl").write_text('{"epoch": 1, "train_loss"\n')
        assert cli_main(["eval", "--checkpoint", str(run / "checkpoint"), "--bundle",
                         str(tiny_bundle_dir), "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "history.jsonl" in err and "Traceback" not in err

    def test_report_table5_from_eval(self, tmp_path, tiny_bundle_dir, trained_run, capsys):
        ckpt = trained_run / "seed_1111" / "checkpoint"
        out = tmp_path / "evalr"
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle",
                         str(tiny_bundle_dir), "--out", str(out), "--tagged",
                         "--snr-db", "0"]) == 0
        capsys.readouterr()
        assert cli_main(["report", "--runs", str(out), "--style", "table5",
                         "--format", "md"]) == 0
        text = capsys.readouterr().out
        assert "| Easy" in text and "Avg (type-mean)" in text


class TestReportCli:
    def test_table4_from_runs(self, trained_run, capsys, tmp_path):
        root = trained_run.parent.parent  # runs root holding lf_dnn/<ts>/
        out_file = tmp_path / "table.md"
        code = cli_main(["report", "--runs", str(root), "--style", "table4",
                         "--format", "md", "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "| Model |" in text and "lf_dnn" in text

    def test_table4_json_format(self, trained_run, capsys):
        root = trained_run.parent.parent
        assert cli_main(["report", "--runs", str(root), "--style", "table4",
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "lf_dnn" in doc

    @pytest.mark.parametrize("text", ["{not json", json.dumps({"model": "lf_dnn",
                                                                "dataset": "synthetic"})])
    def test_table4_malformed_aggregate_is_validation(self, tmp_path, capsys, text):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "aggregate.json").write_text(text)
        assert cli_main(["report", "--runs", str(tmp_path), "--style", "table4"]) == 2
        err = capsys.readouterr().err
        assert "aggregate.json" in err and "Traceback" not in err

    def test_table5_report_without_report_is_validation(self, tmp_path, capsys):
        (tmp_path / "tagged_report.json").write_text(json.dumps({"model": "lf_dnn"}))
        assert cli_main(["report", "--runs", str(tmp_path), "--style", "table5"]) == 2
        err = capsys.readouterr().err
        assert "tagged_report.json" in err and "Traceback" not in err


class TestPerturbCli:
    def test_noise_round_trip(self, tmp_path, tiny_bundle_dir):
        out = tmp_path / "noisy"
        code = cli_main(["perturb", "--bundle", str(tiny_bundle_dir), "--out", str(out),
                         "--snr-db", "0", "--target", "audio", "--seed", "3"])
        assert code == 0
        bundle = read_bundle(out)
        assert all(s.instance_type == "noise" for s in bundle.manifest.samples)

    def test_drop_round_trip(self, tmp_path, tiny_bundle_dir):
        out = tmp_path / "dropped"
        assert cli_main(["perturb", "--bundle", str(tiny_bundle_dir), "--out", str(out),
                         "--drop", "vision"]) == 0
        bundle = read_bundle(out)
        assert np.all(bundle.blocks["vision"].data == 0.0)

    def test_noise_matches_batch_path(self, tmp_path, tiny_bundle_dir):
        out = tmp_path / "noisy"
        assert cli_main(["perturb", "--bundle", str(tiny_bundle_dir), "--out", str(out),
                         "--snr-db", "0", "--target", "audio", "--seed", "3"]) == 0
        idx = [17, 0, 5, 41]
        spec = PerturbationSpec("feature_noise", "audio", snr_db=0.0, seed=3)
        batch = perturb_batch(batch_from_bundle(read_bundle(tiny_bundle_dir), idx), spec)
        np.testing.assert_array_equal(batch.modalities["audio"].data,
                                      batch_from_bundle(read_bundle(out), idx)
                                      .modalities["audio"].data)

    def test_negative_seed_is_rejected(self, tmp_path, tiny_bundle_dir, capsys):
        assert cli_main(["perturb", "--bundle", str(tiny_bundle_dir), "--out",
                         str(tmp_path / "x"), "--snr-db", "0", "--target", "audio",
                         "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    def test_both_flags_is_usage_error(self, tmp_path, tiny_bundle_dir):
        assert cli_main(["perturb", "--bundle", str(tiny_bundle_dir),
                         "--out", str(tmp_path / "x"), "--snr-db", "0",
                         "--target", "audio", "--drop", "vision"]) == 1


@pytest.fixture(scope="module")
def audio_text_checkpoint(tmp_path_factory):
    """Train a small audio+text model on an extracted toy dataset, so
    predict can run end to end from a WAV."""
    root = tmp_path_factory.mktemp("predict_setup")
    data = root / "data"
    data.mkdir()
    rng = np.random.default_rng(0)
    (data / "emb.txt").write_text(
        "<unk> 0.0 0.0\ngood 1.0 0.3\nbad -1.0 -0.3\nok 0.1 0.0\n")
    rows = []
    words = ["good", "bad", "ok"]
    for i in range(16):
        t = np.arange(SR // 5) / SR
        tone = 0.3 * np.sin(2 * np.pi * (150 + 60 * (i % 5)) * t)
        scipy.io.wavfile.write(data / f"s{i}.wav", SR,
                               (tone * 32767).astype(np.int16))
        (data / f"s{i}.txt").write_text(" ".join(rng.choice(words, size=3)))
        split = "train" if i < 10 else ("valid" if i < 13 else "test")
        rows.append({"id": f"s{i}", "split": split,
                     "label_m": round(float(rng.uniform(-1, 1)), 3),
                     "audio_path": f"s{i}.wav", "text_path": f"s{i}.txt"})
    with open(root / "labels.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    extract_cfg = root / "extract.json"
    extract_cfg.write_text(json.dumps({
        "audio": {"kind": "mfcc", "params": {"n_fft": 256, "hop": 128,
                                             "n_mels": 12, "n_mfcc": 6}},
        "text": {"kind": "glove", "params": {"table": "emb.txt"}},
    }))
    bundle_dir = root / "bundle"
    assert cli_main(["extract", "--data", str(data), "--labels", str(root / "labels.csv"),
                     "--config", str(extract_cfg), "--out", str(bundle_dir),
                     "--label-range=-1,1"]) == 0
    runs = root / "runs"
    assert cli_main(["train", "--bundle", str(bundle_dir), "--model", "lf_dnn",
                     "--seeds", "1111", "--out", str(runs),
                     "--set", "max_epochs=3", "--set", "patience=3",
                     "--set", "dropout=0.0", "--set", "batch_size=4",
                     "--set", 'hidden_dims={"text":4,"audio":4,"vision":4}',
                     "--set", "post_fusion_dim=4"]) == 0
    (stamped,) = (runs / "lf_dnn").iterdir()
    return {"root": root, "data": data, "extract_cfg": extract_cfg,
            "checkpoint": stamped / "seed_1111" / "checkpoint"}


class TestExtractAndPredictCli:
    def test_extract_created_valid_bundle(self, audio_text_checkpoint):
        bundle = read_bundle(audio_text_checkpoint["root"] / "bundle")
        assert set(bundle.blocks) == {"audio", "text"}
        assert bundle.n == 16

    def test_predict_outputs_json_and_stft(self, tmp_path, audio_text_checkpoint, capsys):
        setup = audio_text_checkpoint
        out = tmp_path / "pred"
        code = cli_main(["predict", "--checkpoint", str(setup["checkpoint"]),
                         "--sample", str(setup["data"] / "s0.wav"),
                         "--tokens", "good ok",
                         "--embedding", str(setup["data"] / "emb.txt"),
                         "--config", str(setup["extract_cfg"]),
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(payload) == {"pred", "fusion_rep_path", "stft_path"}
        # stft shape matches the frame-count formula for this wav
        rate, samples = scipy.io.wavfile.read(setup["data"] / "s0.wav")
        n_frames = 1 + (len(samples) - 256) // 128
        spec = np.loadtxt(payload["stft_path"], delimiter=",")
        assert spec.shape == (n_frames, 129)

    def test_predict_matches_in_process_forward(self, tmp_path, audio_text_checkpoint,
                                                capsys):
        setup = audio_text_checkpoint
        out = tmp_path / "pred2"
        assert cli_main(["predict", "--checkpoint", str(setup["checkpoint"]),
                         "--sample", str(setup["data"] / "s1.wav"),
                         "--tokens", "bad bad",
                         "--embedding", str(setup["data"] / "emb.txt"),
                         "--config", str(setup["extract_cfg"]),
                         "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

        from msa_forge.extractors import EmbeddingTable, mfcc, read_wav, text_embed_lookup
        from msa_forge.models import Batch, ModalityInput
        model, _ = load_checkpoint(setup["checkpoint"])
        wave = read_wav(setup["data"] / "s1.wav")
        seq_a = mfcc(wave, n_fft=256, hop=128, n_mels=12, n_mfcc=6)
        table = EmbeddingTable.load(setup["data"] / "emb.txt")
        seq_t = text_embed_lookup(["bad", "bad"], table)
        batch = Batch(modalities={
            "audio": ModalityInput(seq_a[None].astype(np.float32),
                                   np.ones((1, seq_a.shape[0]), dtype=bool)),
            "text": ModalityInput(seq_t[None].astype(np.float32),
                                  np.ones((1, 2), dtype=bool)),
        }, labels={"m": np.zeros(1)})
        expect = float(model.forward(batch).pred.data[0])
        assert abs(payload["pred"] - expect) < 1e-9

    def test_predict_missing_embedding_is_validation_error(self, tmp_path,
                                                           audio_text_checkpoint):
        setup = audio_text_checkpoint
        assert cli_main(["predict", "--checkpoint", str(setup["checkpoint"]),
                         "--sample", str(setup["data"] / "s0.wav"),
                         "--tokens", "good",
                         "--out", str(tmp_path / "p")]) == 2


REPLAY_CONFIGS = {
    "stft": {"kind": "stft", "params": {"n_fft": 64, "hop": 32}},
    "hsf": {"kind": "hsf", "params": {}},
}


@pytest.fixture(scope="module", params=sorted(REPLAY_CONFIGS))
def replay_checkpoint(request, tmp_path_factory, audio_text_checkpoint):
    """The toy clips extracted with a non-default audio extractor, and
    lf_dnn trained on them for one epoch."""
    setup = audio_text_checkpoint
    root = tmp_path_factory.mktemp(f"replay_{request.param}")
    config = {"audio": REPLAY_CONFIGS[request.param],
              "text": {"kind": "glove", "params": {"table": "emb.txt"}}}
    (root / "extract.json").write_text(json.dumps(config))
    bundles = []
    for where in ("a", "b"):  # the same clips under two directories
        shutil.copytree(setup["data"], root / where / "data")
        bundles.append(root / where / "bundle")
        assert cli_main(["extract", "--data", str(root / where / "data"),
                         "--labels", str(setup["root"] / "labels.csv"),
                         "--config", str(root / "extract.json"),
                         "--out", str(bundles[-1]), "--label-range=-1,1"]) == 0
    assert cli_main(["train", "--bundle", str(bundles[0]), "--model", "lf_dnn",
                     "--seeds", "1111", "--out", str(root / "runs"),
                     "--set", "max_epochs=1", "--set", "batch_size=4"]) == 0
    (stamped,) = (root / "runs" / "lf_dnn").iterdir()
    return {"data": setup["data"], "bundles": bundles, "config": config,
            "config_path": root / "extract.json",
            "checkpoint": stamped / "seed_1111" / "checkpoint"}


class TestPredictReplaysExtraction:
    def predict(self, setup, sid, out, *flags):
        return cli_main(["predict", "--checkpoint", str(setup["checkpoint"]),
                         "--sample", str(setup["data"] / f"{sid}.wav"),
                         "--tokens", (setup["data"] / f"{sid}.txt").read_text(),
                         "--embedding", str(setup["data"] / "emb.txt"),
                         "--out", str(out), *flags])

    def test_record_in_bundle_and_checkpoint(self, replay_checkpoint):
        setup = replay_checkpoint
        a, b = (bundle / "manifest.json" for bundle in setup["bundles"])
        assert a.read_bytes() == b.read_bytes()
        assert read_bundle(setup["bundles"][0]).manifest.extractors == setup["config"]
        _, manifest = load_checkpoint(setup["checkpoint"])
        assert manifest["extractors"] == setup["config"]

    def test_predict_matches_forward_on_bundle_features(self, tmp_path, replay_checkpoint,
                                                        capsys):
        setup = replay_checkpoint
        model, _ = load_checkpoint(setup["checkpoint"])
        bundle = read_bundle(setup["bundles"][0])
        for i, sample in enumerate(bundle.manifest.samples):
            if sample.split != "test":
                continue
            batch = batch_from_bundle(bundle, [i], model.dtype)
            want = float(model.forward(batch, train=False).pred.data[0])
            for flags in ([], ["--config", str(setup["config_path"])]):
                assert self.predict(setup, sample.id, tmp_path / "p", *flags) == 0
                got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["pred"]
                assert abs(got - want) <= 1e-5, (sample.id, flags, got, want)

    def test_disagreeing_config_names_modality(self, tmp_path, replay_checkpoint, capsys):
        setup = replay_checkpoint
        other = dict(setup["config"], audio={"kind": "mfcc", "params": {}})
        (tmp_path / "other.json").write_text(json.dumps(other))
        assert self.predict(setup, "s13", tmp_path / "p",
                            "--config", str(tmp_path / "other.json")) == 2
        err = capsys.readouterr().err
        assert "'audio'" in err and "Traceback" not in err
