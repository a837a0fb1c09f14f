"""Perturbation determinism, SNR accuracy, drop semantics, and the
tag-stratified evaluation harness."""

import math

import numpy as np
import pytest

from msa_forge import trainer
from msa_forge.bundle import ModalityBlock, split_view
from msa_forge.errors import ValidationError
from msa_forge.models import ModelConfig, batch_from_bundle, build_model
from msa_forge.robustness import (
    NO_NOISE,
    PerturbationSpec,
    add_feature_noise,
    apply_spec_to_bundle,
    drop_modality,
    evaluate_tagged,
    perturb_batch,
    render_tagged_reports,
)
from msa_forge.synthetic import make_synthetic_bundle
from msa_forge.trainer import _evaluate
from msa_forge.analysis import compute_metrics


def random_block(n=100, t=50, d=20, seed=0):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(t // 2, t + 1, size=n).astype(np.int64)
    data = np.zeros((n, t, d), dtype=np.float32)
    for i, ln in enumerate(lengths):
        data[i, :ln] = rng.normal(size=(ln, d))
    return ModalityBlock(feature_dim=d, max_len=t, data=data, lengths=lengths)


class TestFeatureNoise:
    def test_infinite_snr_is_identity(self):
        block = random_block()
        out = add_feature_noise(block, NO_NOISE, seed=1)
        np.testing.assert_array_equal(out.data, block.data)

    def test_measured_snr_within_half_db(self):
        block = random_block()
        target = 5.0
        out = add_feature_noise(block, target, seed=2)
        noise = out.data.astype(np.float64) - block.data.astype(np.float64)
        mask = block.mask()
        sig_p = float(np.mean(block.data[mask].astype(np.float64) ** 2))
        noise_p = float(np.mean(noise[mask] ** 2))
        measured = 10.0 * math.log10(sig_p / noise_p)
        assert abs(measured - target) < 0.5

    def test_padding_stays_zero(self):
        block = random_block()
        out = add_feature_noise(block, 0.0, seed=3)
        assert np.all(out.data[~block.mask()] == 0.0)

    def test_deterministic_per_seed(self):
        block = random_block()
        a = add_feature_noise(block, 3.0, seed=4)
        b = add_feature_noise(block, 3.0, seed=4)
        c = add_feature_noise(block, 3.0, seed=5)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_all_zero_sample_skipped_with_warning(self, caplog):
        block = random_block(n=3)
        block.data[1] = 0.0
        with caplog.at_level("WARNING"):
            out = add_feature_noise(block, 0.0, seed=6)
        np.testing.assert_array_equal(out.data[1], 0.0)
        assert any("all-zero" in rec.message for rec in caplog.records)

    def test_high_snr_converges_to_identity(self):
        block = random_block()
        out = add_feature_noise(block, 100.0, seed=7)
        mask = block.mask()
        rms = float(np.sqrt(np.mean(block.data[mask] ** 2)))
        max_abs = float(np.max(np.abs(out.data - block.data)))
        assert max_abs < 1e-3 * rms * 10  # 100 dB: noise sigma = rms * 1e-5


    @pytest.mark.parametrize("snr_db", [5000.0, -5000.0, -math.inf, -3000.0, math.nan],
                             ids=["5000", "-5000", "-inf", "-3000", "nan"])
    def test_snr_without_finite_noise_is_validation_error(self, snr_db):
        # the power ratio overflows (5000), is 0 (-5000, -inf) or NaN, or the
        # noise takes the frames past float32's range (-3000)
        with pytest.raises(ValidationError, match="snr_db"):
            add_feature_noise(random_block(n=4), snr_db, seed=1)

    def test_snr_bounds_of_the_power_ratio(self):
        block = random_block(n=4)
        add_feature_noise(block, 3082.0, seed=1)  # 10 ** 308.2 is finite
        with pytest.raises(ValidationError, match="snr_db"):
            add_feature_noise(block, 3083.0, seed=1)
        with pytest.raises(ValidationError, match="snr_db"):
            add_feature_noise(block, -3240.0, seed=1)  # 10 ** -324 is 0

    def test_noise_at_the_edge_of_float32(self):
        # sigma ~1e37 keeps every frame inside float32; ~1e39 would not
        block = random_block(n=4)
        assert np.isfinite(add_feature_noise(block, -740.0, seed=1).data).all()
        with pytest.raises(ValidationError, match="float32"):
            add_feature_noise(block, -780.0, seed=1)

    def test_spec_validation_checks_the_snr(self):
        for snr_db in (5000.0, -math.inf, math.nan):
            spec = PerturbationSpec("feature_noise", "audio", snr_db=snr_db)
            with pytest.raises(ValidationError, match="snr_db"):
                spec.validate({"audio"})
        PerturbationSpec("feature_noise", "audio", snr_db=math.inf).validate({"audio"})


class TestDropModality:
    def _batch(self):
        bundle = make_synthetic_bundle(n_train=4, n_valid=2, n_test=2, seq_len=5,
                                       feature_dim=3, seed=1)
        return batch_from_bundle(bundle)

    def test_drop_zeroes_and_masks_only_target(self):
        batch = self._batch()
        out = drop_modality(batch, "audio")
        assert not out.modalities["audio"].mask.any()
        assert np.all(out.modalities["audio"].data == 0.0)
        np.testing.assert_array_equal(out.modalities["text"].data,
                                      batch.modalities["text"].data)
        np.testing.assert_array_equal(out.modalities["vision"].mask,
                                      batch.modalities["vision"].mask)

    def test_idempotent(self):
        batch = self._batch()
        once = drop_modality(batch, "audio")
        twice = drop_modality(once, "audio")
        np.testing.assert_array_equal(once.modalities["audio"].data,
                                      twice.modalities["audio"].data)
        np.testing.assert_array_equal(once.modalities["audio"].mask,
                                      twice.modalities["audio"].mask)

    def test_dropping_everything_is_error(self):
        batch = self._batch()
        out = drop_modality(drop_modality(batch, "audio"), "text")
        with pytest.raises(ValidationError, match="model input would be empty"):
            drop_modality(out, "vision")

    def test_labels_never_change(self):
        batch = self._batch()
        out = perturb_batch(batch, PerturbationSpec("feature_noise", "audio",
                                                    snr_db=0.0, seed=1))
        np.testing.assert_array_equal(out.labels["m"], batch.labels["m"])

    def test_lf_dnn_drop_equals_zeroed_pooling_oracle(self):
        # staged forward: dropping audio must equal replacing the audio
        # pooled vector with zeros (masked-mean-of-nothing convention)
        bundle = make_synthetic_bundle(n_train=4, n_valid=2, n_test=4, seq_len=5,
                                       feature_dim=3, seed=2)
        cfg = ModelConfig(model_name="lf_dnn",
                          feature_dims={m: b.feature_dim for m, b in bundle.blocks.items()},
                          dropout=0.0, seed=5, post_fusion_dim=4,
                          hidden_dims={"text": 4, "audio": 4, "vision": 4})
        model = build_model(cfg)
        batch = batch_from_bundle(bundle)
        dropped_pred = model.forward(drop_modality(batch, "audio")).pred.data

        def relu(x):
            return np.maximum(x, 0)

        p = {n: model.params[n].data for n in model.params.names()}
        encs = []
        for m in ("text", "audio", "vision"):
            mod = batch.modalities[m]
            if m == "audio":
                pooled = np.zeros((batch.size, mod.data.shape[2]), dtype=np.float32)
            else:
                counts = np.maximum(mod.mask.sum(1), 1)[:, None]
                pooled = (mod.data * mod.mask[:, :, None]).sum(1) / counts
            h = relu(pooled @ p[f"enc.{m}.l1.w"] + p[f"enc.{m}.l1.b"])
            encs.append(relu(h @ p[f"enc.{m}.l2.w"] + p[f"enc.{m}.l2.b"]))
        concat = np.concatenate(encs, axis=1)
        hidden = relu(concat @ p["head.l1.w"] + p["head.l1.b"])
        oracle = (hidden @ p["head.l2.w"] + p["head.l2.b"])[:, 0]
        np.testing.assert_allclose(dropped_pred, oracle, rtol=1e-5, atol=1e-6)


class TestBundleLevelPerturb:
    def test_noise_spec_retags_and_preserves_labels(self):
        bundle = make_synthetic_bundle(n_train=4, n_valid=2, n_test=2, seq_len=4,
                                       feature_dim=3, seed=3)
        spec = PerturbationSpec("feature_noise", "audio", snr_db=0.0, seed=9)
        out = apply_spec_to_bundle(bundle, spec)
        assert all(s.instance_type == "noise" for s in out.manifest.samples)
        assert [s.label_m for s in out.manifest.samples] == \
               [s.label_m for s in bundle.manifest.samples]
        assert not np.array_equal(out.blocks["audio"].data, bundle.blocks["audio"].data)
        np.testing.assert_array_equal(out.blocks["text"].data, bundle.blocks["text"].data)

    def test_missing_spec_zeroes_block(self):
        bundle = make_synthetic_bundle(n_train=4, n_valid=2, n_test=2, seq_len=4,
                                       feature_dim=3, seed=4)
        out = apply_spec_to_bundle(bundle, PerturbationSpec("modality_missing", "vision"))
        assert np.all(out.blocks["vision"].data == 0.0)
        assert all(s.instance_type == "missing" for s in out.manifest.samples)

    def test_unknown_modality_rejected(self):
        bundle = make_synthetic_bundle(n_train=4, n_valid=2, n_test=2, seq_len=4,
                                       feature_dim=3)
        with pytest.raises(ValidationError):
            apply_spec_to_bundle(bundle, PerturbationSpec("feature_noise", "smell",
                                                          snr_db=0.0))


class _ConstantModel:
    """Predicts the latent sum read directly off the features: a perfect
    oracle model for harness tests, no training needed."""

    dtype = np.float32

    def forward(self, batch, train=False):
        from msa_forge.autodiff import Tensor
        total = np.zeros(batch.size, dtype=np.float64)
        for v in batch.modalities.values():
            # first valid frame's dim 0 (zero when dropped)
            any_valid = v.mask.any(axis=1)
            first = np.where(any_valid, v.mask.argmax(axis=1), 0)
            vals = v.data[np.arange(batch.size), first, 0]
            total += np.where(any_valid, vals, 0.0)

        class Out:
            pred = Tensor(total)

        return Out()


class TestEvaluateTagged:
    def _bundle(self):
        return split_view(
            make_synthetic_bundle(n_train=30, n_valid=10, n_test=50, seq_len=6,
                                  feature_dim=4, seed=5), "test")

    def test_perfect_predictions_give_perfect_rows(self):
        bundle = self._bundle()
        report = evaluate_tagged(_ConstantModel(), bundle)
        for t, row in report.rows.items():
            assert row.acc2 == 1.0 and row.f1 == 1.0, t
        assert report.avg_by_type.acc2 == 1.0
        assert report.avg_by_sample.acc2 == 1.0

    def test_rows_match_per_subset_compute_metrics(self):
        bundle = self._bundle()
        specs = [PerturbationSpec("feature_noise", "audio", snr_db=0.0, seed=11),
                 PerturbationSpec("modality_missing", "audio")]
        model = _ConstantModel()
        report = evaluate_tagged(model, bundle, specs)

        labels = bundle.labels()
        tags = [s.instance_type for s in bundle.manifest.samples]
        # oracle for a tagged row: clean predictions on that subset
        clean_preds = model.forward(batch_from_bundle(bundle)).pred.data
        for t in ("easy", "common", "difficult"):
            idx = [i for i, tag in enumerate(tags) if tag == t]
            if len(idx) < 2:
                assert t in report.missing_types
                continue
            rep = compute_metrics(clean_preds[idx], labels[idx], strict_corr=False)
            assert report.rows[t].acc2 == rep.acc2
            assert report.rows[t].f1 == rep.f1
        # oracle for the missing row: dropped-audio predictions on all clean samples
        dropped = model.forward(drop_modality(batch_from_bundle(bundle), "audio")).pred.data
        rep = compute_metrics(dropped, labels, strict_corr=False)
        assert report.rows["missing"].acc2 == rep.acc2
        assert report.rows["missing"].n == bundle.n

    def test_report_independent_of_batch_size(self, monkeypatch):
        bundle = split_view(make_synthetic_bundle(n_train=4, n_valid=2, n_test=150,
                                                  seq_len=6, feature_dim=4, seed=6), "test")
        specs = [PerturbationSpec("feature_noise", "audio", snr_db=0.0, seed=3),
                 PerturbationSpec("modality_missing", "vision")]
        monkeypatch.setattr(trainer, "EVAL_BATCH_SIZE", 7)
        small = evaluate_tagged(_ConstantModel(), bundle, specs)
        monkeypatch.setattr(trainer, "EVAL_BATCH_SIZE", 64)
        large = evaluate_tagged(_ConstantModel(), bundle, specs)
        assert small.as_dict() == large.as_dict()

    def test_batch_noise_keyed_per_sample(self):
        # samples i and i + 64 once got the same noise from a per-batch reseed
        bundle = split_view(make_synthetic_bundle(n_train=4, n_valid=2, n_test=130,
                                                  seq_len=6, feature_dim=4, seed=6), "test")
        spec = PerturbationSpec("feature_noise", "audio", snr_db=0.0, seed=3)

        def noise(idx):
            batch = batch_from_bundle(bundle, idx)
            return perturb_batch(batch, spec).modalities["audio"].data - \
                batch.modalities["audio"].data

        whole = noise(np.arange(bundle.n))
        chunks = np.concatenate([noise(np.arange(s, min(s + 64, bundle.n)))
                                 for s in range(0, bundle.n, 64)])
        np.testing.assert_array_equal(whole, chunks)
        assert not np.array_equal(whole[0], whole[64])

    def test_avg_conventions(self):
        bundle = self._bundle()
        report = evaluate_tagged(_ConstantModel(), bundle,
                                 [PerturbationSpec("modality_missing", "audio")])
        rows = list(report.rows.values())
        type_mean = sum(r.acc2 for r in rows) / len(rows)
        sample_mean = sum(r.acc2 * r.n for r in rows) / sum(r.n for r in rows)
        assert abs(report.avg_by_type.acc2 - type_mean) < 1e-12
        assert abs(report.avg_by_sample.acc2 - sample_mean) < 1e-12

    def test_counts_sum_to_report_n(self):
        bundle = self._bundle()
        report = evaluate_tagged(_ConstantModel(), bundle)
        assert report.n == sum(r.n for r in report.rows.values())

    def test_scenario_breakdown_present(self):
        bundle = self._bundle()
        report = evaluate_tagged(_ConstantModel(), bundle)
        assert set(report.scenarios) == {"Films(TV)", "Variety Show", "Life(Vlog)"}

    def test_clean_preds_stand_in_for_the_clean_pass(self, monkeypatch):
        bundle = self._bundle()
        model = build_model(ModelConfig("lf_dnn", feature_dims={
            m: b.feature_dim for m, b in bundle.blocks.items()}))
        specs = [PerturbationSpec("feature_noise", "audio", snr_db=0.0, seed=2),
                 PerturbationSpec("modality_missing", "vision")]
        _, preds, _ = _evaluate(model, bundle)
        rows = []
        forward = type(model).forward

        def spy(self, batch, train=False):
            rows.append(batch.size)
            return forward(self, batch, train)

        monkeypatch.setattr(type(model), "forward", spy)
        given = evaluate_tagged(model, bundle, specs, clean_preds=preds)
        assert sum(rows) == 2 * bundle.n   # the two specs' sweeps, no clean sweep
        computed = evaluate_tagged(model, bundle, specs)
        assert sum(rows) == 5 * bundle.n
        assert given.as_dict() == computed.as_dict()
        with pytest.raises(ValidationError, match="clean_preds"):
            evaluate_tagged(model, bundle, specs, clean_preds=preds[1:])

    def test_untagged_bundle_without_specs_is_error(self):
        bundle = split_view(
            make_synthetic_bundle(n_train=4, n_valid=2, n_test=10, seq_len=4,
                                  feature_dim=3, with_tags=False), "test")
        with pytest.raises(ValidationError):
            evaluate_tagged(_ConstantModel(), bundle)
        # with specs it works and tags rows noise/missing only
        report = evaluate_tagged(_ConstantModel(), bundle,
                                 [PerturbationSpec("feature_noise", "audio",
                                                   snr_db=0.0, seed=1)])
        assert set(report.rows) == {"noise"}
        assert set(report.missing_types) == {"easy", "common", "difficult", "missing"}


class TestRendering:
    def _report(self):
        from msa_forge.robustness import TaggedEvalReport, TypeRow
        rows = {"easy": TypeRow(0.833, 0.844, 30), "common": TypeRow(0.714, 0.745, 28),
                "difficult": TypeRow(0.692, 0.692, 26), "noise": TypeRow(0.60, 0.505, 24),
                "missing": TypeRow(0.636, 0.606, 25)}
        avg_t = TypeRow(acc2=sum(r.acc2 for r in rows.values()) / 5,
                        f1=sum(r.f1 for r in rows.values()) / 5,
                        n=sum(r.n for r in rows.values()))
        total = avg_t.n
        avg_s = TypeRow(acc2=sum(r.acc2 * r.n for r in rows.values()) / total,
                        f1=sum(r.f1 * r.n for r in rows.values()) / total, n=total)
        return TaggedEvalReport(rows=rows, avg_by_type=avg_t, avg_by_sample=avg_s)

    def test_reference_row_format(self):
        text = render_tagged_reports({"tfn": self._report()}, fmt="markdown")
        easy = next(line for line in text.splitlines() if line.startswith("| Easy"))
        assert "83.3 / 84.4" in easy

    def test_both_avg_rows_rendered(self):
        text = render_tagged_reports({"tfn": self._report()}, fmt="markdown")
        assert "Avg (sample-weighted)" in text
        assert "Avg (type-mean)" in text

    def test_missing_type_renders_na_with_footnote(self):
        report = self._report()
        del report.rows["noise"]
        report.missing_types = ("noise",)
        text = render_tagged_reports({"tfn": report}, fmt="markdown")
        assert "n/a" in text
        assert "excluded from the type-mean" in text

    def test_csv_and_json(self):
        rep = self._report()
        csv_text = render_tagged_reports({"a": rep, "b": rep}, fmt="csv")
        assert csv_text.splitlines()[0] == "Types,a Acc-2 / F1,b Acc-2 / F1"
        import json as _json
        doc = _json.loads(render_tagged_reports({"a": rep}, fmt="json"))
        assert doc["a"]["rows"]["easy"]["n"] == 30
