"""Metric oracles, PCA properties, and report rendering."""

import csv
import io
import json
import math

import numpy as np
import pytest

from msa_forge.analysis import (
    MetricReport,
    ProjectionResult,
    compute_metrics,
    export_curves,
    export_projection_csv,
    make_benchmark_report,
    pca_project,
    require_finite_rows,
)
from msa_forge.errors import MetricError, ValidationError


def loop_oracle(preds, labels, binarize="non_negative", f1_average="weighted"):
    """Independent brute-force metrics with explicit confusion counts."""
    n = len(preds)
    if binarize == "non_negative":
        pc = [p >= 0 for p in preds]
        lc = [l >= 0 for l in labels]
    else:
        pc = [p > 0 for p, l in zip(preds, labels) if l != 0]
        lc = [l > 0 for l in labels if l != 0]
    acc = sum(1 for a, b in zip(pc, lc) if a == b) / len(pc)

    def f1_class(cls):
        tp = sum(1 for a, b in zip(pc, lc) if a == cls and b == cls)
        fp = sum(1 for a, b in zip(pc, lc) if a == cls and b != cls)
        fn = sum(1 for a, b in zip(pc, lc) if a != cls and b == cls)
        return 0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)

    if f1_average == "positive":
        f1 = f1_class(True)
    else:
        f1 = 0.0
        for cls in (False, True):
            support = sum(1 for b in lc if b == cls)
            f1 += support / len(lc) * f1_class(cls)

    mae = sum(abs(p - l) for p, l in zip(preds, labels)) / n
    pm = sum(preds) / n
    lm = sum(labels) / n
    cov = sum((p - pm) * (l - lm) for p, l in zip(preds, labels))
    vp = sum((p - pm) ** 2 for p in preds)
    vl = sum((l - lm) ** 2 for l in labels)
    corr = cov / math.sqrt(vp * vl)
    return acc, f1, mae, corr


class TestComputeMetrics:
    def test_hand_arithmetic(self):
        rep = compute_metrics([-1.0, 0.5], [-2.0, 1.0])
        assert rep.acc2 == 1.0
        assert rep.mae == 0.75

    def test_identity_predictions(self):
        rng = np.random.default_rng(0)
        labels = rng.uniform(-3, 3, size=20)
        rep = compute_metrics(labels, labels)
        assert rep.acc2 == 1.0 and rep.f1 == 1.0 and rep.mae == 0.0
        assert abs(rep.corr - 1.0) < 1e-12

    def test_matches_loop_oracle_on_random_vectors(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            preds = rng.uniform(-3, 3, size=40)
            labels = rng.uniform(-3, 3, size=40)
            rep = compute_metrics(preds, labels)
            acc, f1, mae, corr = loop_oracle(list(preds), list(labels))
            assert abs(rep.acc2 - acc) < 1e-9, trial
            assert abs(rep.f1 - f1) < 1e-9, trial
            assert abs(rep.mae - mae) < 1e-9, trial
            assert abs(rep.corr - corr) < 1e-9, trial

    def test_positive_f1_mode_matches_oracle(self):
        rng = np.random.default_rng(2)
        preds = rng.uniform(-1, 1, size=50)
        labels = rng.uniform(-1, 1, size=50)
        rep = compute_metrics(preds, labels, f1_average="positive")
        _, f1, _, _ = loop_oracle(list(preds), list(labels), f1_average="positive")
        assert abs(rep.f1 - f1) < 1e-12

    def test_exclude_zero_mode_drops_zero_labels(self):
        preds = np.array([0.5, -0.5, 1.0, -1.0])
        labels = np.array([0.0, 0.0, 2.0, -2.0])
        rep = compute_metrics(preds, labels, binarize="exclude_zero")
        assert rep.acc2 == 1.0

    def test_acc2_invariant_under_sign_preserving_monotone_transforms(self):
        rng = np.random.default_rng(3)
        preds = rng.uniform(-2, 2, size=60)
        labels = rng.uniform(-2, 2, size=60)
        base = compute_metrics(preds, labels).acc2
        for transform in (lambda x: 3.0 * x, lambda x: x ** 3, lambda x: x * np.abs(x)):
            assert compute_metrics(transform(preds), labels).acc2 == base

    def test_corr_invariant_under_positive_affine_transform(self):
        rng = np.random.default_rng(4)
        preds = rng.uniform(-2, 2, size=60)
        labels = rng.uniform(-2, 2, size=60)
        base = compute_metrics(preds, labels).corr
        moved = compute_metrics(2.5 * preds + 1.0, labels).corr
        assert abs(base - moved) < 1e-9

    def test_zero_variance_corr_is_error(self):
        with pytest.raises(MetricError):
            compute_metrics([1.0, 1.0, 1.0], [0.5, -0.5, 0.2])

    def test_non_strict_corr_gives_nan(self):
        rep = compute_metrics([1.0, 1.0, 1.0], [0.5, -0.5, 0.2], strict_corr=False)
        assert math.isnan(rep.corr)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics([1.0, 2.0], [1.0])


class TestRequireFiniteRows:
    def test_counts_rows_with_a_non_finite_prediction_or_representation(self):
        preds = np.array([0.1, np.nan, 0.3, 0.4])
        reps = [np.ones((4, 2, 3)), np.array([[1.0], [2.0], [np.inf], [np.nan]])]
        with pytest.raises(MetricError, match=r"split 'x': 3 of 4 rows"):
            require_finite_rows("split 'x'", preds, reps)

    def test_finite_rows_pass(self):
        require_finite_rows("clean", np.zeros(3), [np.zeros((3, 2))])


class TestPca:
    def test_rank_one_data_has_one_nonzero_variance(self):
        rng = np.random.default_rng(5)
        direction = rng.normal(size=6)
        coords = rng.normal(size=40)
        data = np.outer(coords, direction) + rng.normal(size=6)  # shifted line
        proj = pca_project(data, k=3)
        assert proj.explained_variance[1] < 1e-8
        assert proj.explained_variance[2] < 1e-8

    def test_components_orthonormal_and_variances_sorted(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(50, 8)) * np.array([5, 3, 2, 1, 1, 1, 0.5, 0.1])
        proj = pca_project(data, k=3)
        gram = proj.components @ proj.components.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)
        ev = proj.explained_variance
        assert ev[0] >= ev[1] >= ev[2] >= 0

    def test_rotation_preserves_spectrum(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(60, 5)) * np.array([4, 2, 1, 0.5, 0.25])
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        rotated = data @ q
        ev_a = pca_project(data, k=3).explained_variance
        ev_b = pca_project(rotated, k=3).explained_variance
        np.testing.assert_allclose(ev_a, ev_b, rtol=1e-8)

    def test_projected_coordinates_have_zero_mean(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(30, 6)) + 7.0
        proj = pca_project(data, k=3)
        np.testing.assert_allclose(proj.projected.mean(axis=0), 0.0, atol=1e-9)

    def test_reconstruction_error_non_increasing_in_k(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(40, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
        centered = data - data.mean(axis=0)
        errors = []
        for k in (1, 2, 3):
            proj = pca_project(data, k=k)
            recon = proj.projected @ proj.components
            errors.append(float(np.sum((centered - recon) ** 2)))
        assert errors[0] >= errors[1] >= errors[2]

    def test_sign_convention(self):
        rng = np.random.default_rng(10)
        proj = pca_project(rng.normal(size=(25, 4)), k=3)
        for comp in proj.components:
            assert comp[np.argmax(np.abs(comp))] > 0

    def test_reps_too_large_to_center_rejected(self):
        # their mean overflows, and the SVD of the NaN-filled centered matrix
        # ended eval in a LinAlgError traceback
        data = 1e308 + 1e307 * np.random.default_rng(11).random((6, 4))
        assert np.isfinite(data).all()
        with pytest.raises(MetricError, match="too large to center"):
            pca_project(data, k=3)
        with pytest.raises(MetricError, match="non-finite"):
            pca_project(np.where(np.eye(6, 4) > 0, np.nan, 1.0), k=3)

    def test_variance_past_float64_reads_inf(self):
        # centered values of 1e200 are finite; their squares are not
        proj = pca_project(np.random.default_rng(12).normal(size=(6, 4)) * 1e200, k=3)
        assert np.isposinf(proj.explained_variance).all()
        assert np.isfinite(proj.projected).all()

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError):
            pca_project(np.zeros((2, 5)), k=3)


class TestReports:
    def _results(self):
        return {
            "TFN": {"MOSI": {"acc2": 0.7802, "f1": 0.7809, "mae": 0.971, "corr": 0.652}},
            "MLF_DNN": {"MOSI": None,
                        "SIMS": {"acc2": 0.8044, "f1": 0.8028, "mae": 0.396, "corr": 0.665}},
        }

    def test_reference_row_renders_verbatim(self):
        text = make_benchmark_report(self._results(), fmt="markdown")
        row = next(line for line in text.splitlines() if line.startswith("| TFN"))
        assert "78.02" in row and "78.09" in row and "0.971" in row and "0.652" in row

    def test_missing_entries_render_dash(self):
        text = make_benchmark_report(self._results(), fmt="markdown")
        row = next(line for line in text.splitlines() if "MLF_DNN" in line)
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[1:5] == ["-", "-", "-", "-"]

    def test_json_round_trips(self):
        results = self._results()
        text = make_benchmark_report(results, fmt="json")
        assert json.loads(text) == results

    def test_csv_has_header_and_rows(self):
        text = make_benchmark_report(self._results(), fmt="csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("Model,MOSI Acc-2")
        assert len(lines) == 3

    def test_metric_report_objects_accepted(self):
        rep = MetricReport(acc2=0.5, f1=0.5, mae=1.0, corr=0.0, n=10)
        text = make_benchmark_report({"lf_dnn": {"toy": rep}}, fmt="markdown")
        assert "50.00" in text

    def test_empty_results_rejected(self):
        with pytest.raises(ValidationError):
            make_benchmark_report({}, fmt="markdown")


class TestExports:
    def test_curve_export(self, tmp_path):
        history = tmp_path / "history.jsonl"
        records = [
            {"epoch": 1, "train_loss": 0.9, "valid": {"acc2": 0.5, "f1": 0.4,
                                                      "mae": 1.0, "corr": 0.1}},
            {"epoch": 2, "train_loss": 0.7, "valid": {"acc2": 0.6, "f1": 0.55,
                                                      "mae": 0.8, "corr": 0.3}},
        ]
        history.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        text = export_curves(history, tmp_path / "curves.csv")
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,loss,acc2,f1"
        assert lines[1].startswith("1,0.9,0.5")
        assert (tmp_path / "curves.csv").exists()

    def test_projection_export(self, tmp_path):
        rng = np.random.default_rng(11)
        proj = pca_project(rng.normal(size=(5, 4)), k=3)
        text = export_projection_csv(proj, [f"s{i}" for i in range(5)],
                                     rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5),
                                     tmp_path / "proj.csv")
        lines = text.strip().splitlines()
        assert lines[0] == "id,x,y,z,label,pred"
        assert len(lines) == 6

    @staticmethod
    def projection_csv_by_rows(proj, ids, labels, preds):
        """The projection CSV formatted one value at a time through
        csv.writer, as export_projection_csv wrote it before it formatted
        the numbers through _csvtext."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "x", "y", "z", "label", "pred"])
        for i in range(proj.projected.shape[0]):
            coords = [f"{proj.projected[i, j]:.6g}" for j in range(proj.projected.shape[1])]
            while len(coords) < 3:
                coords.append("0")
            writer.writerow([ids[i], *coords[:3], f"{labels[i]:.6g}", f"{preds[i]:.6g}"])
        return buf.getvalue()

    EDGE_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.5, 1e-4, 9.999995e-5,
                   0.0001234565, 1234565.0, 999999.5, 999999.4, 1e6, 1e-300, 5e-324,
                   -2.2250738585072014e-308, 1.7976931348623157e308, 123456789012.0, 0.1,
                   1 / 3, 2.5e-5, 100000.5, -123.4565]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [4, 150])
    def test_projection_bytes_equal_per_value_formatting(self, n, k):
        """Random values of every magnitude, the edge values, float32 inputs
        and ids csv.writer must quote give the bytes of the per-value writer,
        below and above _csvtext's kernel threshold."""
        rng = np.random.default_rng(12 + n + k)
        projected = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-12, 12, size=(n, k))
        edges = np.array(self.EDGE_VALUES)
        projected.ravel()[:min(projected.size, len(edges))] = edges[:projected.size]
        proj = ProjectionResult(components=np.eye(k), projected=projected,
                                explained_variance=np.ones(k))
        labels = rng.uniform(-3, 3, n)
        labels[:min(n, len(edges))] = edges[:n]
        preds = (rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, size=n)).astype(np.float32)
        ids = [f"s{i}" for i in range(n)]
        ids[:4] = ["a,b", 'q"uote', "line\nbreak", ""]
        text = export_projection_csv(proj, ids, labels, preds)
        assert text == self.projection_csv_by_rows(proj, ids, labels, preds)
