"""End-to-end CLI tests on tiny data: exit codes, file outputs, and
byte-parity with direct library calls."""

import csv
import json
import shutil
import sys

import numpy as np
import pytest
import scipy.io.wavfile

from msa_forge import cli, extractors
from msa_forge.bundle import read_bundle, write_bundle
from msa_forge.cli import cli_main
from msa_forge.errors import UsageError, ValidationError
from msa_forge.models import (ModelConfig, batch_from_bundle, build_model, load_checkpoint,
                              save_checkpoint)
from msa_forge.robustness import PerturbationSpec, evaluate_tagged, perturb_batch
from msa_forge.synthetic import make_synthetic_bundle
from msa_forge.trainer import EVAL_BATCH_SIZE, _evaluate, get_config_regression, multi_seed_run
from test_extractors import build_toy_dataset

SR = 16000


@pytest.fixture(scope="module")
def tiny_bundle_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "tiny"
    bundle = make_synthetic_bundle(n_train=24, n_valid=8, n_test=10, seq_len=6,
                                   feature_dim=4, seed=0)
    write_bundle(bundle, path)
    return path


# --snr-db values that draw no finite noise: the power ratio overflows (5000),
# is 0 (-5000, -inf) or NaN, or the noisy frames overflow float32 (-3000)
SNR_WITHOUT_FINITE_NOISE = ["5000", "-5000", "-inf", "-3000", "nan"]


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

    @pytest.mark.parametrize("command, flag", [
        ("perturb", "--snr-db"), ("perturb", "--seed"), ("eval", "--snr-db"), ("eval", "--seed"),
        ("extract", "--lenient"), ("extract", "--label-range"), ("train", "--set")])
    def test_dash_dash_as_a_flag_value_is_usage(self, tmp_path, capsys, command, flag):
        # argparse before 3.13 turned `--seed=--` into an empty list
        required = {"perturb": ["--bundle", "b", "--out", "o"],
                    "eval": ["--checkpoint", "c", "--bundle", "b", "--out", "o", "--tagged"],
                    "extract": ["--data", "d", "--labels", "l", "--config", "c", "--out", "o"],
                    "train": ["--bundle", "b", "--model", "lf_dnn"]}[command]
        assert cli_main([command, *required, f"{flag}=--"]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expected one argument" in err and "Traceback" not in err

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

    def test_undefined_corr_prints_null(self, tmp_path, capsys):
        # test labels that are all 0 leave the correlation undefined; stdout
        # printed it as NaN, which is not JSON, while aggregate.json held null
        bundle = make_synthetic_bundle(n_train=40, n_valid=10, n_test=10, seq_len=4,
                                       feature_dim=3, seed=0)
        for sample in bundle.manifest.samples:
            if sample.split == "test":
                sample.label_m = 0.0
        write_bundle(bundle, tmp_path / "bundle")
        assert cli_main(["train", "--bundle", str(tmp_path / "bundle"), "--model", "lf_dnn",
                         "--seeds", "1", "--out", str(tmp_path / "runs"),
                         "--set", "max_epochs=1"]) == 0

        def refuse(name):
            raise ValueError(f"{name} in stdout")

        line = capsys.readouterr().out.strip().splitlines()[-1]
        means = json.loads(line, parse_constant=refuse)["metrics_mean"]
        assert means["corr"] is None and means["mae"] is not None
        (stamped,) = (tmp_path / "runs" / "lf_dnn").iterdir()
        aggregate = json.loads((stamped / "aggregate.json").read_text(), parse_constant=refuse)
        assert means == {k: m["mean"] for k, m in aggregate["metrics"].items()}

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

    @pytest.mark.parametrize("override", ["dataset_name=[1,2]", 'dataset_name={"a":1}',
                                          "dtype=null", "post_fusion_dim=[6]",
                                          "optimizer.lr=null"])
    def test_train_set_list_object_or_null_for_scalar_field(self, tmp_path, tiny_bundle_dir,
                                                            capsys, override):
        # dataset_name=[1,2] trained and wrote "dataset": "[1, 2]"; dtype=null
        # became the string 'None'
        assert self.train(tmp_path, tiny_bundle_dir, "--set", override) == 1
        err = capsys.readouterr().err
        assert f"config key {override.split('=')[0]!r}" in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_train_set_feature_dims_without_modalities(self, tmp_path, tiny_bundle_dir, capsys):
        assert self.train(tmp_path, tiny_bundle_dir, "--set", "feature_dims={}") == 2
        err = capsys.readouterr().err
        assert "feature_dims" in err and "Traceback" not in err

    def test_train_config_file_list_for_scalar_field(self, tmp_path, tiny_bundle_dir, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"dataset_name": [1, 2]}))
        assert self.train(tmp_path, tiny_bundle_dir, "--config", str(tmp_path / "cfg.json")) == 1
        err = capsys.readouterr().err
        assert "config key 'dataset_name'" in err and "Traceback" not in err

    def test_number_for_string_field_still_converts(self):
        config = get_config_regression("lf_dnn")
        config["dataset_name"] = 5
        assert config["dataset_name"] == "5"

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

    def test_train_repeated_seed_refused(self, tmp_path, tiny_bundle_dir, capsys):
        # both runs went to one seed_1111 directory, and aggregate.json reported std 0
        assert self.train(tmp_path, tiny_bundle_dir, "--seeds", "1111,1111") == 2
        err = capsys.readouterr().err
        assert "distinct" in err and "1111" in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_train_bool_seed_refused(self, tmp_path, tiny_bundle_dir, capsys):
        # [true] trained as seed True
        assert self.train(tmp_path, tiny_bundle_dir, "--set", "seeds=[true]") == 2
        err = capsys.readouterr().err
        assert "seeds" in err and "True" in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_extract_config_invalid_json(self, tmp_path, capsys):
        (tmp_path / "extract.json").write_text("[1,")
        assert cli_main(["extract", "--data", str(tmp_path), "--labels",
                         str(tmp_path / "labels.csv"), "--config",
                         str(tmp_path / "extract.json"), "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err


class TestExtractLabelCsv:
    """The label CSV is checked, whole, before any clip is extracted."""

    def extract(self, tmp_path, monkeypatch, rows, *flags):
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
                         str(tmp_path / "bundle"), *flags])
        return code, extracted

    def test_good_rows_extract(self, tmp_path, monkeypatch):
        code, extracted = self.extract(tmp_path, monkeypatch, [
            ["s0", "train", "0.5", "", "v0.csv"], ["s1", "test", "-1", "2", "v1.csv"]])
        assert code == 0 and len(extracted) == 2
        assert read_bundle(tmp_path / "bundle").manifest.samples[1].label_t == 2.0

    @pytest.mark.parametrize("label_range", ["-inf,inf", "-3,inf", "nan,3", "-1e999,3"])
    def test_non_finite_label_range_is_usage(self, tmp_path, monkeypatch, capsys, label_range):
        # it used to exit 0 and write [-Infinity, Infinity] into manifest.json
        code, extracted = self.extract(tmp_path, monkeypatch, [
            ["s0", "train", "0.5", "", "v0.csv"]], f"--label-range={label_range}")
        err = capsys.readouterr().err
        assert code == 1 and extracted == [] and "Traceback" not in err
        assert "--label-range" in err and "finite" in err
        assert not (tmp_path / "bundle").exists()

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

    @pytest.mark.parametrize("key, value", [("dtype", None), ("dtype", ["f32"]),
                                            ("dropout", [0.0]), ("post_fusion_dim", {"n": 6}),
                                            ("feature_dims", [4, 4, 4])])
    def test_eval_manifest_list_object_or_null_for_scalar_field(
            self, tmp_path, tiny_bundle_dir, trained_run, capsys, key, value):
        # dtype null was read as the string 'None'
        ckpt = self._edited_checkpoint(tmp_path, trained_run, key, value)
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle",
                         str(tiny_bundle_dir), "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert ("manifest.json" in err or key in err) and "Traceback" not in err

    @pytest.mark.parametrize("value", [[], {}])
    def test_eval_manifest_without_modalities_is_validation(self, tmp_path, tiny_bundle_dir,
                                                            trained_run, capsys, value):
        # the model was built with no modality and lf_dnn's head raised
        # ZeroDivisionError from its init bound
        ckpt = self._edited_checkpoint(tmp_path, trained_run, "feature_dims", value)
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle",
                         str(tiny_bundle_dir), "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "feature_dims" in err and "Traceback" not in err

    @pytest.mark.parametrize("size", ["3", " 3", 3.5, True, None])
    def test_eval_param_shape_follows_scalar_rule(self, tmp_path, tiny_bundle_dir, trained_run,
                                                  capsys, size):
        # "3" and " 3" loaded through int() as the size 3
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_run / "seed_1111" / "checkpoint", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["params"][0]["shape"][0] = size
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle",
                         str(tiny_bundle_dir), "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", [["lf_dnn"], {"lf_dnn": 1}, None, 3, True])
    def test_non_string_model_name_is_validation(self, tmp_path, tiny_bundle_dir, trained_run,
                                                 capsys, name):
        # ["lf_dnn"] ended in TypeError: unhashable type: 'list', exit 1
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_run / "seed_1111" / "checkpoint", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["model_name"] = name
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        for argv in (["eval", "--bundle", str(tiny_bundle_dir)],
                     ["predict", "--tokens", "a b", "--config", str(tmp_path / "none.json")]):
            assert cli_main([*argv, "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert "manifest.json" in err and "model_name" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, field, value", [("eval", "attn_heads", 0),
                                                       ("predict", "dropout", 1.5)],
                             ids=["eval-attn_heads", "predict-dropout"])
    def test_out_of_range_config_names_the_manifest(self, tmp_path, tiny_bundle_dir,
                                                    trained_run, capsys, command, field, value):
        # a well-typed value that ModelConfig.validate refuses printed only
        # "Error: attn_heads must be >= 1, got 0", which does not name the file
        ckpt = self._edited_checkpoint(tmp_path, trained_run, field, value)
        argv = {"eval": ["--bundle", str(tiny_bundle_dir)],
                "predict": ["--tokens", "a b", "--config", str(tmp_path / "none.json")]}
        assert cli_main([command, *argv[command], "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt / 'manifest.json'}" in err and field in err and "Traceback" not in err

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

    @pytest.mark.parametrize("snr_db", SNR_WITHOUT_FINITE_NOISE)
    def test_eval_tagged_snr_without_finite_noise(self, tmp_path, tiny_bundle_dir, trained_run,
                                                  capsys, snr_db):
        ckpt = trained_run / "seed_1111" / "checkpoint"
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle", str(tiny_bundle_dir),
                         "--out", str(tmp_path / "e"), "--tagged", f"--snr-db={snr_db}"]) == 2
        err = capsys.readouterr().err
        assert "snr_db" in err and "Traceback" not in err
        assert not (tmp_path / "e" / "tagged_report.json").exists()

    def test_eval_non_finite_predictions_is_metric_error(self, tmp_path, tiny_bundle_dir,
                                                         trained_run, capsys):
        # noise at -765 dB keeps every frame inside float32, but lf_dnn's
        # pooling overflows on some rows; eval used to die in pca_project's SVD
        noisy = tmp_path / "noisy"
        assert cli_main(["perturb", "--bundle", str(tiny_bundle_dir), "--out", str(noisy),
                         "--snr-db=-765", "--target", "vision"]) == 0
        ckpt = trained_run / "seed_1111" / "checkpoint"
        out = tmp_path / "e"
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle", str(noisy),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "split 'test'" in err and "of 10 rows" in err and "non-finite" in err
        assert "Traceback" not in err
        assert not (out / "metrics.json").exists() and not (out / "projection.csv").exists()

    def test_eval_tagged_non_finite_noise_predictions_is_metric_error(
            self, tmp_path, tiny_bundle_dir, trained_run, capsys):
        # the clean rows score, but the noise row's predictions are not finite:
        # they used to be scored as if they were
        ckpt = trained_run / "seed_1111" / "checkpoint"
        out = tmp_path / "e"
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle", str(tiny_bundle_dir),
                         "--out", str(out), "--tagged", "--snr-db=-765",
                         "--target", "vision"]) == 2
        err = capsys.readouterr().err
        assert "feature_noise on vision at snr_db -765.0" in err and "of 10 rows" in err
        assert "Traceback" not in err
        assert (out / "metrics.json").exists() and not (out / "tagged_report.json").exists()

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

    @pytest.mark.parametrize("mean", ["abc", [1], True], ids=["string", "list", "bool"])
    def test_table4_non_numeric_mean_is_validation(self, tmp_path, capsys, mean):
        # "abc" ended in a ValueError and [1] in a TypeError from _fmt_cell
        (tmp_path / "aggregate.json").write_text(json.dumps(
            {"model": "lf_dnn", "dataset": "synthetic",
             "metrics": {"acc2": {"mean": mean}, "mae": {"mean": None}}}))
        assert cli_main(["report", "--runs", str(tmp_path), "--style", "table4"]) == 2
        err = capsys.readouterr().err
        assert "aggregate.json" in err and "Traceback" not in err

    @pytest.mark.parametrize("acc2", ["x", None], ids=["string", "null"])
    def test_table5_non_numeric_acc2_is_validation(self, tmp_path, capsys, acc2):
        # "x" ended in a ValueError and null in a TypeError from robustness._cell
        (tmp_path / "tagged_report.json").write_text(json.dumps(
            {"model": "lf_dnn", "report": {"rows": {"easy": {"acc2": acc2, "f1": 0.5, "n": 3}}}}))
        assert cli_main(["report", "--runs", str(tmp_path), "--style", "table5"]) == 2
        err = capsys.readouterr().err
        assert "tagged_report.json" in err and "Traceback" not in err

    def test_table5_report_without_report_is_validation(self, tmp_path, capsys):
        (tmp_path / "tagged_report.json").write_text(json.dumps({"model": "lf_dnn"}))
        assert cli_main(["report", "--runs", str(tmp_path), "--style", "table5"]) == 2
        err = capsys.readouterr().err
        assert "tagged_report.json" in err and "Traceback" not in err


# invalid JSON, bytes that are not UTF-8 (a UTF-16 byte-order mark), and a
# document whose top level is not an object
BAD_JSON_DOCUMENTS = {"invalid": b"{not json", "not_utf8": b"\xff\xfe{\x00}\x00",
                      "list": b"[1, 2]"}


class TestJsonDocuments:
    """Every file read as one JSON document exits 2 with no traceback when it
    is not JSON, not UTF-8 or not a JSON object."""

    @pytest.fixture(params=sorted(BAD_JSON_DOCUMENTS))
    def bad(self, request):
        return BAD_JSON_DOCUMENTS[request.param]

    def exits_2(self, capsys, name, *argv):
        assert cli_main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    def test_bundle_manifest(self, tmp_path, tiny_bundle_dir, capsys, bad):
        broken = tmp_path / "bundle"
        shutil.copytree(tiny_bundle_dir, broken)
        (broken / "manifest.json").write_bytes(bad)
        self.exits_2(capsys, "manifest.json", "perturb", "--bundle", broken,
                     "--out", tmp_path / "out", "--drop", "audio")

    def test_checkpoint_manifest(self, tmp_path, tiny_bundle_dir, trained_run, capsys, bad):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_run / "seed_1111" / "checkpoint", ckpt)
        (ckpt / "manifest.json").write_bytes(bad)
        self.exits_2(capsys, "manifest.json", "eval", "--checkpoint", ckpt,
                     "--bundle", tiny_bundle_dir, "--out", tmp_path / "eval")

    def test_config_flag(self, tmp_path, tiny_bundle_dir, capsys, bad):
        (tmp_path / "cfg.json").write_bytes(bad)
        self.exits_2(capsys, "--config", "train", "--bundle", tiny_bundle_dir,
                     "--model", "lf_dnn", "--config", tmp_path / "cfg.json",
                     "--out", tmp_path / "runs")
        self.exits_2(capsys, "--config", "extract", "--data", tmp_path,
                     "--labels", tmp_path / "labels.csv", "--config", tmp_path / "cfg.json",
                     "--out", tmp_path / "bundle")

    @pytest.mark.parametrize("style, name", [("table4", "aggregate.json"),
                                             ("table5", "tagged_report.json")])
    def test_report_inputs(self, tmp_path, capsys, bad, style, name):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / name).write_bytes(bad)
        self.exits_2(capsys, name, "report", "--runs", tmp_path, "--style", style)


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

    @pytest.mark.parametrize("snr_db", SNR_WITHOUT_FINITE_NOISE)
    def test_snr_without_finite_noise(self, tmp_path, tiny_bundle_dir, capsys, snr_db):
        assert cli_main(["perturb", "--bundle", str(tiny_bundle_dir), "--out",
                         str(tmp_path / "x"), f"--snr-db={snr_db}", "--target", "audio"]) == 2
        err = capsys.readouterr().err
        assert "snr_db" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

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

    def test_predict_non_finite_prediction_is_metric_error(self, tmp_path, capsys):
        # the AU values fit float32, but the forward overflows on them; predict
        # used to exit 0 and print {"pred": NaN, ...}, which is not JSON
        audio_cfg = {"kind": "mfcc", "params": {"n_fft": 256, "hop": 128,
                                                "n_mels": 12, "n_mfcc": 6}}
        model = build_model(ModelConfig("lf_dnn", feature_dims={"audio": 6, "vision": 2}))
        save_checkpoint(model, tmp_path / "ckpt", extractors={
            "audio": audio_cfg, "vision": {"kind": "ingest_csv", "params": {}}})
        (tmp_path / "face.csv").write_text("AU01,AU02\n" + "3e38,3e38\n" * 4)
        out = tmp_path / "pred"
        assert cli_main(["predict", "--checkpoint", str(tmp_path / "ckpt"),
                         "--sample", str(_write_float_wav(tmp_path / "a.wav")),
                         "--visual-csv", str(tmp_path / "face.csv"), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "the clip: 1 of 1 rows have a non-finite prediction" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()  # no stft.csv, fusion_rep.csv or prediction.json

    def test_predict_refuses_inputs_for_modalities_the_checkpoint_lacks(self, tmp_path,
                                                                          monkeypatch, capsys):
        # an audio-only checkpoint used to exit 0 and read neither input
        model = build_model(ModelConfig("lf_dnn", feature_dims={"audio": 6}))
        save_checkpoint(model, tmp_path / "ckpt", extractors={"audio": {
            "kind": "mfcc", "params": {"n_fft": 256, "hop": 128, "n_mels": 12, "n_mfcc": 6}}})
        calls = _spy_everywhere(monkeypatch, extractors.stft)
        out = tmp_path / "pred"
        assert cli_main(["predict", "--checkpoint", str(tmp_path / "ckpt"),
                         "--sample", str(_write_float_wav(tmp_path / "a.wav")),
                         "--visual-csv", str(tmp_path / "missing" / "face.csv"),
                         "--tokens", "x y", "--config", str(tmp_path / "missing.json"),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("--visual-csv, --tokens given, but the checkpoint has only the modalities "
                "audio") in err
        assert "Traceback" not in err
        assert calls == [] and not out.exists()
        # empty tokens name no input
        assert cli_main(["predict", "--checkpoint", str(tmp_path / "ckpt"),
                         "--sample", str(_write_float_wav(tmp_path / "a.wav")),
                         "--tokens", "", "--out", str(out)]) == 0

    @pytest.mark.parametrize("table", ["valid", "no_unk", "missing"])
    def test_predict_refuses_embedding_for_a_checkpoint_without_text(self, tmp_path, capsys,
                                                                     table):
        # --embedding used to be read and then ignored: exit 0 for a valid
        # table, exit 2 for one without <unk> or a missing file
        model = build_model(ModelConfig("lf_dnn", feature_dims={"audio": 6}))
        save_checkpoint(model, tmp_path / "ckpt", extractors={"audio": {
            "kind": "mfcc", "params": {"n_fft": 256, "hop": 128, "n_mels": 12, "n_mfcc": 6}}})
        emb = tmp_path / "emb.txt"
        if table != "missing":
            emb.write_text(("<unk> 0 0\n" if table == "valid" else "") + "good 1 0\n")
        out = tmp_path / "pred"
        assert cli_main(["predict", "--checkpoint", str(tmp_path / "ckpt"),
                         "--sample", str(_write_float_wav(tmp_path / "a.wav")),
                         "--embedding", str(emb), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--embedding given, but the checkpoint has only the modalities audio" in err
        assert "Traceback" not in err and not out.exists()

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


BAD_PARAMS = [("n_fft", 512.0), ("hop", "160"), ("n_mfcc", True)]


class TestExtractorParamTypes:
    """A param of the wrong JSON type is a validation error (exit 2) that
    names it, whichever subcommand reads the extractor config."""

    def bad_config(self, tmp_path, setup, name, value) -> str:
        config = json.loads(setup["extract_cfg"].read_text())
        config["audio"]["params"][name] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        return str(path)

    @pytest.mark.parametrize("name, value", BAD_PARAMS)
    def test_extract(self, tmp_path, audio_text_checkpoint, capsys, name, value):
        setup = audio_text_checkpoint
        code = cli_main(["extract", "--data", str(setup["data"]),
                         "--labels", str(setup["root"] / "labels.csv"),
                         "--config", self.bad_config(tmp_path, setup, name, value),
                         "--out", str(tmp_path / "bundle"), "--label-range=-1,1"])
        err = capsys.readouterr().err
        assert code == 2 and f"param '{name}'" in err and "Traceback" not in err
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("name, value", BAD_PARAMS)
    def test_predict_on_a_checkpoint_without_a_record(self, tmp_path, trained_run,
                                                      audio_text_checkpoint, capsys,
                                                      name, value):
        setup = audio_text_checkpoint
        assert load_checkpoint(trained_run / "seed_1111" / "checkpoint")[1].get(
            "extractors") is None
        code = cli_main(["predict", "--checkpoint", str(trained_run / "seed_1111" / "checkpoint"),
                         "--sample", str(setup["data"] / "s0.wav"), "--tokens", "good",
                         "--config", self.bad_config(tmp_path, setup, name, value),
                         "--out", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 2 and f"param '{name}'" in err and "Traceback" not in err

    def test_predict_on_a_record_edited_by_hand(self, tmp_path, audio_text_checkpoint, capsys):
        setup = audio_text_checkpoint
        checkpoint = tmp_path / "checkpoint"
        shutil.copytree(setup["checkpoint"], checkpoint)
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        manifest["extractors"]["audio"]["params"]["n_fft"] = 256.0
        (checkpoint / "manifest.json").write_text(json.dumps(manifest))
        code = cli_main(["predict", "--checkpoint", str(checkpoint),
                         "--sample", str(setup["data"] / "s0.wav"), "--tokens", "good",
                         "--embedding", str(setup["data"] / "emb.txt"),
                         "--out", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 2 and "param 'n_fft'" in err and "Traceback" not in err


    @pytest.mark.parametrize("kind, name", [("mfcc", "nfft"), ("hsf", "corrupt_seed")])
    def test_param_the_kind_does_not_read(self, tmp_path, audio_text_checkpoint, trained_run,
                                          capsys, kind, name):
        setup = audio_text_checkpoint
        config = {"audio": {"kind": kind, "params": {name: 256}}}
        (tmp_path / "c.json").write_text(json.dumps(config))
        model = build_model(ModelConfig("lf_dnn", feature_dims={"audio": 20}))
        save_checkpoint(model, tmp_path / "recorded", extractors=config)
        message = f"modality 'audio': param '{name}' is not read by extractor kind '{kind}'"
        runs = [
            ["extract", "--data", str(setup["data"]), "--labels", str(setup["root"] / "labels.csv"),
             "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "b"),
             "--label-range=-1,1"],
            ["predict", "--checkpoint", str(trained_run / "seed_1111" / "checkpoint"),
             "--sample", str(setup["data"] / "s0.wav"), "--config", str(tmp_path / "c.json"),
             "--out", str(tmp_path / "p")],
            # a checkpoint whose record holds the param
            ["predict", "--checkpoint", str(tmp_path / "recorded"),
             "--sample", str(setup["data"] / "s0.wav"), "--out", str(tmp_path / "p")],
        ]
        for argv in runs:
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
        assert not (tmp_path / "b").exists() and not (tmp_path / "p").exists()


class TestConfigRulesOnce:
    """Settings that no clip can run exit 2 with one message, before any WAV is read."""

    @pytest.mark.parametrize("params, named", [({"lld": "foo"}, "'lld'"),
                                               ({"n_fft": 500}, "n_fft"),
                                               ({"n_mels": 300}, "n_mels"),
                                               ({"lld": "stft", "n_mels": 12}, "n_mels")])
    def test_extract_and_predict(self, tmp_path, audio_text_checkpoint, trained_run,
                                 monkeypatch, capsys, params, named):
        setup = audio_text_checkpoint
        (tmp_path / "hsf.json").write_text(json.dumps({"audio": {"kind": "hsf",
                                                                  "params": params}}))
        reads = _spy_everywhere(monkeypatch, extractors.read_wav)
        extract = ["extract", "--data", str(setup["data"]),
                   "--labels", str(setup["root"] / "labels.csv"),
                   "--config", str(tmp_path / "hsf.json"), "--out", str(tmp_path / "b"),
                   "--label-range=-1,1"]
        predict = ["predict", "--checkpoint", str(trained_run / "seed_1111" / "checkpoint"),
                   "--sample", str(setup["data"] / "s0.wav"),
                   "--config", str(tmp_path / "hsf.json"), "--out", str(tmp_path / "p")]
        for argv in (extract, [*extract, "--lenient", "1.0"], predict):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("modality 'audio'") == 1 and named in err
            assert "samples failed" not in err and "Traceback" not in err
        assert reads == []


    def test_hsf_on_stft_extracts_and_predicts_with_its_config(self, tmp_path,
                                                               audio_text_checkpoint):
        setup = audio_text_checkpoint
        config = tmp_path / "hsf.json"
        config.write_text(json.dumps({"audio": {"kind": "hsf", "params": {"lld": "stft"}}}))
        assert cli_main(["extract", "--data", str(setup["data"]),
                         "--labels", str(setup["root"] / "labels.csv"), "--config", str(config),
                         "--out", str(tmp_path / "b"), "--label-range=-1,1"]) == 0
        bundle = read_bundle(tmp_path / "b")
        assert bundle.manifest.extractors == {"audio": {"kind": "hsf",
                                                        "params": {"lld": "stft"}}}
        model = build_model(ModelConfig("lf_dnn", feature_dims={
            "audio": bundle.blocks["audio"].feature_dim}))
        save_checkpoint(model, tmp_path / "checkpoint", extractors=bundle.manifest.extractors)
        assert cli_main(["predict", "--checkpoint", str(tmp_path / "checkpoint"),
                         "--sample", str(setup["data"] / "s0.wav"), "--config", str(config),
                         "--out", str(tmp_path / "p")]) == 0


class TestPredictConfigAgreement:
    """--config agrees with the checkpoint's record when the kinds match and
    the params, defaults filled in, are equal."""

    def configs(self, tmp_path, given, recorded):
        (tmp_path / "c.json").write_text(json.dumps({"audio": given}))
        return cli._predict_configs(str(tmp_path / "c.json"), {"audio": recorded})

    @pytest.mark.parametrize("given, recorded", [
        ({"kind": "mfcc", "params": {}}, {"kind": "mfcc", "params": {"n_mfcc": 20}}),
        ({"kind": "A2"}, {"kind": "mfcc", "params": {}}),
        ({"kind": "mfcc", "params": {"n_fft": 512, "hop": 160, "sample_rate": None}},
         {"kind": "mfcc", "params": {}}),
        ({"kind": "glove", "params": {"table": "emb.txt", "corrupt_rate": 0.0}},
         {"kind": "glove", "params": {"table": "emb.txt"}}),
        ({"kind": "hsf", "params": {"lld": "stft"}},
         {"kind": "hsf", "params": {"lld": "stft", "n_fft": 512}}),
        # predict reads --embedding, not the table
        ({"kind": "glove", "params": {"table": "/data/emb.txt"}},
         {"kind": "glove", "params": {"table": "emb.txt"}}),
        ({"kind": "glove", "params": {}}, {"kind": "glove", "params": {"table": "emb.txt"}}),
    ])
    def test_same_settings_agree(self, tmp_path, given, recorded):
        (cfg,) = self.configs(tmp_path, given, recorded).values()
        assert (cfg.kind, cfg.params) == (recorded["kind"], recorded["params"])

    @pytest.mark.parametrize("given, recorded", [
        ({"kind": "mfcc", "params": {"n_fft": 256}}, {"kind": "mfcc", "params": {}}),
        ({"kind": "hsf", "params": {}}, {"kind": "mfcc", "params": {}}),
        ({"kind": "hsf", "params": {"lld": "stft"}}, {"kind": "hsf", "params": {}}),
        ({"kind": "glove", "params": {"table": "emb.txt", "corrupt_rate": 0.5}},
         {"kind": "glove", "params": {"table": "emb.txt"}}),
    ])
    def test_different_settings_disagree(self, tmp_path, given, recorded):
        with pytest.raises(ValidationError, match="'audio'.*disagrees"):
            self.configs(tmp_path, given, recorded)

    def test_table_by_its_absolute_path_predicts_the_same(self, tmp_path, audio_text_checkpoint,
                                                          capsys):
        setup = audio_text_checkpoint
        config = json.loads(setup["extract_cfg"].read_text())
        assert config["text"]["params"]["table"] == "emb.txt"

        def predict(name, **text_params):
            config["text"]["params"].update(text_params)
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            code = cli_main(["predict", "--checkpoint", str(setup["checkpoint"]),
                             "--sample", str(setup["data"] / "s0.wav"), "--tokens", "good ok",
                             "--embedding", str(setup["data"] / "emb.txt"),
                             "--config", str(tmp_path / f"{name}.json"),
                             "--out", str(tmp_path / name)])
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            return code, captured

        code, recorded = predict("recorded")
        assert code == 0
        code, absolute = predict("absolute", table=str((setup["data"] / "emb.txt").resolve()))
        assert code == 0
        assert json.loads((tmp_path / "absolute" / "prediction.json").read_text())["pred"] == \
            json.loads((tmp_path / "recorded" / "prediction.json").read_text())["pred"]
        code, other_rate = predict("other_rate", corrupt_rate=0.5)
        assert code == 2 and "'text'" in other_rate.err and "disagrees" in other_rate.err


# ---------------------------------------------------------------------------
# the serving path does no repeated work, and predict replays extract exactly
# ---------------------------------------------------------------------------

def _spy_everywhere(monkeypatch, fn) -> list:
    """Record the calls to ``fn`` under every msa_forge module name bound to it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "msa_forge" or name.startswith("msa_forge."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spy)
    return calls


def _forward_spy(monkeypatch, model_class) -> list:
    """Record (batch, output) for every forward pass of ``model_class``."""
    seen = []
    forward = model_class.forward

    def spy(self, batch, train=False):
        out = forward(self, batch, train)
        seen.append((batch, out))
        return out

    monkeypatch.setattr(model_class, "forward", spy)
    return seen


def _write_float_wav(path, bad_value=None):
    samples = np.full(SR // 5, 0.1, dtype=np.float32)
    if bad_value is not None:
        samples[100] = bad_value
    scipy.io.wavfile.write(path, SR, samples)
    return path


class TestServingPath:
    def test_eval_tagged_sweeps_the_bundle_once_per_condition(self, tmp_path, tiny_bundle_dir,
                                                              trained_run, monkeypatch):
        ckpt = trained_run / "seed_1111" / "checkpoint"
        model, _ = load_checkpoint(ckpt)
        bundle = read_bundle(tiny_bundle_dir)
        seen = _forward_spy(monkeypatch, type(model))
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--bundle", str(tiny_bundle_dir),
                         "--out", str(tmp_path / "eval"), "--split", "all", "--tagged",
                         "--snr-db", "0", "--drop", "vision"]) == 0
        # clean, noise and missing; every sample is clean (tagged easy/common/difficult)
        assert sum(batch.size for batch, _ in seen) == 3 * bundle.n
        monkeypatch.undo()
        specs = [PerturbationSpec("feature_noise", "audio", snr_db=0.0),
                 PerturbationSpec("modality_missing", "vision")]
        doc = json.loads((tmp_path / "eval" / "tagged_report.json").read_text())
        assert doc["report"] == json.loads(json.dumps(
            evaluate_tagged(model, bundle, specs).as_dict()))

    def test_predict_runs_one_stft(self, tmp_path, audio_text_checkpoint, monkeypatch):
        setup = audio_text_checkpoint
        calls = _spy_everywhere(monkeypatch, extractors.stft)
        assert cli_main(["predict", "--checkpoint", str(setup["checkpoint"]),
                         "--sample", str(setup["data"] / "s2.wav"), "--tokens", "good",
                         "--embedding", str(setup["data"] / "emb.txt"),
                         "--out", str(tmp_path / "p")]) == 0
        assert len(calls) == 1

    def test_bad_mfcc_dims_exit_2_before_the_stft(self, tmp_path, audio_text_checkpoint,
                                                  monkeypatch, capsys):
        setup = audio_text_checkpoint
        bad = {"audio": {"kind": "mfcc", "params": {"n_fft": 256, "n_mels": 12, "n_mfcc": 20}}}
        message = "need n_mfcc <= n_mels <= n_fft/2+1, got (20, 12, 129)"
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        model = build_model(ModelConfig("lf_dnn", feature_dims={"audio": 20}))
        save_checkpoint(model, tmp_path / "ckpt", extractors=bad)
        calls = _spy_everywhere(monkeypatch, extractors.stft)
        assert cli_main(["extract", "--data", str(setup["data"]),
                         "--labels", str(setup["root"] / "labels.csv"),
                         "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "b"),
                         "--label-range=-1,1"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert cli_main(["predict", "--checkpoint", str(tmp_path / "ckpt"),
                         "--sample", str(setup["data"] / "s0.wav"),
                         "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert calls == []


class TestLenientFlag:
    @pytest.mark.parametrize("fraction", ["nan", "-0.1", "1.5"])
    def test_fraction_outside_0_1_exits_2(self, tmp_path, capsys, fraction):
        data = build_toy_dataset(tmp_path / "data", n=3, corrupt=1)
        (tmp_path / "extract.json").write_text(json.dumps(
            {"audio": {"kind": "mfcc"}, "text": {"kind": "glove",
                                                 "params": {"table": "emb.txt"}}}))
        assert cli_main(["extract", "--data", str(data), "--labels", str(data / "labels.csv"),
                         "--config", str(tmp_path / "extract.json"),
                         "--out", str(tmp_path / "b"), f"--lenient={fraction}"]) == 2
        err = capsys.readouterr().err
        assert "--lenient" in err and "Traceback" not in err
        assert not (tmp_path / "b").exists()


class TestNonFiniteWav:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_predict_exits_2_and_writes_no_prediction(self, tmp_path, audio_text_checkpoint,
                                                      capsys, bad):
        setup = audio_text_checkpoint
        wav = _write_float_wav(tmp_path / "broken.wav", bad)
        out = tmp_path / "p"
        assert cli_main(["predict", "--checkpoint", str(setup["checkpoint"]),
                         "--sample", str(wav), "--tokens", "good",
                         "--embedding", str(setup["data"] / "emb.txt"),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "broken.wav" in captured.err
        assert captured.out == "" and not (out / "prediction.json").exists()

    def test_extract_strict_names_the_wav_and_lenient_drops_it(self, tmp_path,
                                                               audio_text_checkpoint,
                                                               capsys, caplog):
        setup = audio_text_checkpoint
        data = tmp_path / "data"
        shutil.copytree(setup["data"], data)
        _write_float_wav(data / "s3.wav", np.nan)
        argv = ["extract", "--data", str(data), "--labels", str(setup["root"] / "labels.csv"),
                "--config", str(setup["extract_cfg"]), "--label-range=-1,1"]
        assert cli_main([*argv, "--out", str(tmp_path / "strict")]) == 2
        err = capsys.readouterr().err
        assert "1/16 samples failed" in err and "s3.wav" in err and "Traceback" not in err
        assert cli_main([*argv, "--out", str(tmp_path / "lenient"), "--lenient", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 15
        assert "s3" not in read_bundle(tmp_path / "lenient").ids
        assert "dropped 1 failed sample(s): s3:" in caplog.text


WAV_KIND_CONFIGS = {
    "stft": {"kind": "stft", "params": {"n_fft": 64, "hop": 32}},
    "mfcc": {"kind": "mfcc", "params": {"n_fft": 256, "hop": 128, "n_mels": 12, "n_mfcc": 6}},
    "hsf_mfcc": {"kind": "hsf", "params": {"lld": "mfcc"}},
    "hsf_stft": {"kind": "hsf", "params": {"lld": "stft", "n_fft": 128, "hop": 64}},
}


@pytest.fixture(scope="module", params=sorted(WAV_KIND_CONFIGS))
def wav_kind_setup(request, tmp_path_factory, audio_text_checkpoint):
    """The toy clips extracted into an audio-only bundle with one WAV kind,
    and untrained f32 and f64 lf_dnn checkpoints that record that extractor."""
    setup = audio_text_checkpoint
    root = tmp_path_factory.mktemp(f"wav_{request.param}")
    config = WAV_KIND_CONFIGS[request.param]
    (root / "extract.json").write_text(json.dumps({"audio": config}))
    assert cli_main(["extract", "--data", str(setup["data"]),
                     "--labels", str(setup["root"] / "labels.csv"),
                     "--config", str(root / "extract.json"), "--out", str(root / "bundle"),
                     "--label-range=-1,1"]) == 0
    bundle = read_bundle(root / "bundle")
    for dtype in ("f32", "f64"):
        model = build_model(ModelConfig("lf_dnn", dtype=dtype, feature_dims={
            "audio": bundle.blocks["audio"].feature_dim}))
        save_checkpoint(model, root / f"checkpoint_{dtype}",
                        extractors=bundle.manifest.extractors)
    return {"data": setup["data"], "bundle": bundle, "params": config["params"],
            "checkpoint": root / "checkpoint_f32", "checkpoint_f64": root / "checkpoint_f64"}


class TestOneExtractionPath:
    def test_predict_features_and_dumps_match_extract(self, tmp_path, wav_kind_setup,
                                                      monkeypatch, capsys):
        setup = wav_kind_setup
        bundle = setup["bundle"]
        block = bundle.blocks["audio"]
        n_fft, hop = setup["params"].get("n_fft", 512), setup["params"].get("hop", 160)
        for checkpoint in (setup["checkpoint"], setup["checkpoint_f64"]):
            model, _ = load_checkpoint(checkpoint)
            seen = _forward_spy(monkeypatch, type(model))
            for i in (0, 7, 15):
                assert bundle.ids[i] == f"s{i}"
                wav = setup["data"] / f"s{i}.wav"
                out = tmp_path / checkpoint.name / f"p{i}"
                assert cli_main(["predict", "--checkpoint", str(checkpoint),
                                 "--sample", str(wav), "--out", str(out)]) == 0
                pred = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["pred"]
                (batch, output), = seen
                # the model sees the bundle row as extract stored it (float32), in its dtype
                got = batch.modalities["audio"].data
                want = block.data[i:i + 1, :block.lengths[i]].astype(model.dtype)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                row = batch_from_bundle(bundle, [i], model.dtype)
                assert pred == float(model.forward(row).pred.data[0])
                seen.clear()
                # the dumps are the bytes np.savetxt writes for the reference arrays
                spec = extractors.stft(extractors.read_wav(wav), n_fft, hop)
                np.savetxt(tmp_path / "stft_ref.csv", spec, delimiter=",", fmt="%.6g")
                np.savetxt(tmp_path / "fusion_ref.csv", output.fusion_rep.data, delimiter=",",
                           fmt="%.6g")
                assert (out / "stft.csv").read_bytes() == (tmp_path / "stft_ref.csv").read_bytes()
                assert ((out / "fusion_rep.csv").read_bytes()
                        == (tmp_path / "fusion_ref.csv").read_bytes())
            monkeypatch.undo()

    def test_quiet_clip_dump_is_all_exponent_form(self, tmp_path, wav_kind_setup):
        """A clip so quiet that every spectrogram value is below 1e-4, so the
        dump is written in exponent form only."""
        setup = wav_kind_setup
        n_fft, hop = setup["params"].get("n_fft", 512), setup["params"].get("hop", 160)
        rng = np.random.default_rng(3)
        wav = tmp_path / "quiet.wav"
        scipy.io.wavfile.write(wav, SR, (1e-9 * rng.uniform(0.5, 1.0, SR // 4)
                                         * rng.choice([-1.0, 1.0], SR // 4)).astype(np.float32))
        assert cli_main(["predict", "--checkpoint", str(setup["checkpoint"]),
                         "--sample", str(wav), "--out", str(tmp_path / "p")]) == 0
        spec = extractors.stft(extractors.read_wav(wav), n_fft, hop)
        np.savetxt(tmp_path / "stft_ref.csv", spec, delimiter=",", fmt="%.6g")
        dump = (tmp_path / "p" / "stft.csv").read_bytes()
        assert dump == (tmp_path / "stft_ref.csv").read_bytes()
        fields = dump.replace(b"\n", b",").rstrip(b",").split(b",")
        assert len(fields) == spec.size and all(b"e-" in f for f in fields)


class TestCachedParser:
    def test_calls_in_one_process_do_not_leak(self, tmp_path, tiny_bundle_dir, monkeypatch):
        assert cli._build_parser() is cli._build_parser()
        seen = []

        def stop(pairs):
            seen.append(list(pairs))
            raise UsageError("stopped before training")

        monkeypatch.setattr(cli, "_parse_set", stop)
        train = ["train", "--bundle", str(tiny_bundle_dir), "--model", "lf_dnn",
                 "--out", str(tmp_path / "runs")]
        assert cli_main([*train, "--set", "max_epochs=1", "--set", "dropout=0.0"]) == 1
        assert cli_main(train) == 1
        assert seen == [["max_epochs=1", "dropout=0.0"], []]
        monkeypatch.undo()

        perturb = ["perturb", "--bundle", str(tiny_bundle_dir), "--drop", "vision"]
        assert cli_main([*perturb, "--out", str(tmp_path / "a")]) == 0
        assert cli_main(perturb) == 1                      # --out is required
        assert cli_main(["train", "--help"]) == 0
        assert cli_main(["--help"]) == 0
        assert cli_main([*perturb, "--out", str(tmp_path / "b")]) == 0
        for name in ("manifest.json", "vision.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
