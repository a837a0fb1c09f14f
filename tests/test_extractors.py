"""Extractor tests: DSP oracles, embedding lookup, CSV ingestion, and
whole-dataset runs."""

import csv
import math
import re

import numpy as np
import pytest
import scipy.io.wavfile

from msa_forge.bundle import bundle_equal
from msa_forge.errors import ExtractionError
from msa_forge.extractors import (
    EXTRACTOR_PARAMS,
    EmbeddingTable,
    FEATURE_CODES,
    ExtractorConfig,
    WaveBuffer,
    corrupt_tokens,
    filled_params,
    ingest_visual_csv,
    mel_filterbank,
    mfcc,
    read_wav,
    resolve_config,
    run_dataset,
    stft,
    text_embed_lookup,
    utterance_stats,
)

SR = 16000


def write_wav(path, samples, rate=SR, dtype=np.int16):
    if dtype == np.int16:
        scipy.io.wavfile.write(path, rate, (np.asarray(samples) * 32767).astype(np.int16))
    else:
        scipy.io.wavfile.write(path, rate, np.asarray(samples, dtype=dtype))
    return path


class TestReadWav:
    def test_silence(self, tmp_path):
        path = tmp_path / "silence.wav"
        scipy.io.wavfile.write(path, SR, np.zeros(SR, dtype=np.int16))
        wave = read_wav(path)
        assert wave.sample_rate == SR
        assert len(wave.samples) == SR
        np.testing.assert_array_equal(wave.samples, 0.0)

    def test_int16_full_scale_scaling(self, tmp_path):
        path = tmp_path / "full.wav"
        scipy.io.wavfile.write(path, SR, np.array([32767, -32768], dtype=np.int16))
        wave = read_wav(path)
        assert abs(wave.samples[0] - 32767 / 32768) < 1e-12
        assert abs(wave.samples[1] + 1.0) < 1e-12

    def test_sine_peaks_at_its_bin_dft_oracle(self, tmp_path):
        t = np.arange(SR) / SR
        path = write_wav(tmp_path / "a440.wav", 0.5 * np.sin(2 * np.pi * 440.0 * t))
        wave = read_wav(path)
        spectrum = np.abs(np.fft.rfft(wave.samples))
        peak_hz = np.argmax(spectrum) * SR / len(wave.samples)
        assert abs(peak_hz - 440.0) <= 1.0

    def test_stereo_downmix_mean(self, tmp_path):
        stereo = np.stack([np.full(100, 0.5), np.full(100, -0.1)], axis=1).astype(np.float32)
        path = tmp_path / "st.wav"
        scipy.io.wavfile.write(path, SR, stereo)
        wave = read_wav(path)
        np.testing.assert_allclose(wave.samples, 0.2, atol=1e-7)

    def test_float_stereo_is_the_float32_mean(self, tmp_path):
        stereo = np.random.default_rng(2).uniform(-1, 1, size=(300, 2)).astype(np.float32)
        path = tmp_path / "st.wav"
        scipy.io.wavfile.write(path, SR, stereo)
        np.testing.assert_array_equal(read_wav(path).samples,
                                      stereo.mean(axis=1).astype(np.float64))

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_integer_stereo_is_scaled_not_peak_normalised(self, tmp_path, dtype):
        full_scale = float(np.iinfo(dtype).max) + 1.0
        lo, hi = (1000, 3000) if dtype == np.int16 else (1000 << 16, 3000 << 16)
        stereo = np.stack([np.full(100, lo), np.full(100, hi)], axis=1).astype(dtype)
        path = tmp_path / "st.wav"
        scipy.io.wavfile.write(path, SR, stereo)
        np.testing.assert_array_equal(read_wav(path).samples, (lo + hi) / 2 / full_scale)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_integer_stereo_reads_back_exactly(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        pcm = np.random.default_rng(3).integers(info.min, info.max, size=(257, 2),
                                                endpoint=True, dtype=dtype)
        path = tmp_path / "st.wav"
        scipy.io.wavfile.write(path, SR, pcm)
        # the sum of two channels and the power-of-two division are exact in f64
        want = (pcm[:, 0].astype(np.float64) + pcm[:, 1]) / (2.0 * (info.max + 1.0))
        np.testing.assert_array_equal(read_wav(path).samples, want)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_integer_mono_is_divided_by_full_scale(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        pcm = np.random.default_rng(4).integers(info.min, info.max, size=300,
                                                endpoint=True, dtype=dtype)
        path = tmp_path / "mono.wav"
        scipy.io.wavfile.write(path, SR, pcm)
        np.testing.assert_array_equal(read_wav(path).samples,
                                      pcm.astype(np.float64) / (info.max + 1.0))

    def test_rate_mismatch_rejected(self, tmp_path):
        path = write_wav(tmp_path / "slow.wav", np.zeros(100) + 0.1, rate=8000)
        with pytest.raises(ExtractionError):
            read_wav(path, expected_rate=16000)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(ExtractionError):
            read_wav(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_non_finite_float_sample_rejected(self, tmp_path, bad, channels):
        samples = np.full((50, channels), 0.25, dtype=np.float32)
        samples[17, 0] = bad
        path = tmp_path / "bad.wav"
        scipy.io.wavfile.write(path, SR, samples[:, 0] if channels == 1 else samples)
        with pytest.raises(ExtractionError, match="bad.wav.*non-finite.*index 17"):
            read_wav(path)


class TestStft:
    def test_frame_count_formula(self):
        wave = WaveBuffer(SR, np.random.default_rng(0).normal(size=1024))
        assert stft(wave, 512, 256).shape == (3, 257)

    def test_frame_count_on_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_fft = int(2 ** rng.integers(4, 10))
            hop = int(rng.integers(1, n_fft + 1))
            length = int(rng.integers(n_fft, n_fft * 6))
            wave = WaveBuffer(SR, rng.normal(size=length))
            out = stft(wave, n_fft, hop)
            assert out.shape == (1 + (length - n_fft) // hop, n_fft // 2 + 1)

    def test_dc_signal_concentrates_at_bin_zero(self):
        # the Hann main lobe spans bins 0..1, so DC energy sits there;
        # bin 0 alone carries 80% and is the per-frame argmax
        wave = WaveBuffer(SR, np.full(2048, 0.7))
        spec = stft(wave, 256, 128)
        energy = spec ** 2
        assert np.all(energy.argmax(axis=1) == 0)
        assert np.all(energy[:, :2].sum(axis=1) / energy.sum(axis=1) >= 0.99)

    def test_parseval_against_time_domain_energy(self):
        rng = np.random.default_rng(2)
        n_fft, hop = 512, 256
        x = rng.normal(size=4096)
        wave = WaveBuffer(SR, x)
        spec = stft(wave, n_fft, hop)
        win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
        for f in range(spec.shape[0]):
            frame = x[f * hop:f * hop + n_fft] * win
            e_time = np.sum(frame ** 2)
            mags = spec[f]
            e_freq = (mags[0] ** 2 + 2 * np.sum(mags[1:-1] ** 2) + mags[-1] ** 2) / n_fft
            assert abs(e_freq - e_time) / e_time < 1e-3

    def test_too_short_signal_rejected(self):
        with pytest.raises(ExtractionError):
            stft(WaveBuffer(SR, np.zeros(100)), 256, 128)

    def test_strided_frames_match_per_frame_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n_fft = int(2 ** rng.integers(0, 10))
            hop = int(rng.integers(1, n_fft + 1))
            x = rng.normal(size=int(rng.integers(n_fft, n_fft * 6 + 20)))
            win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
            frames = np.stack([x[i:i + n_fft] * win
                               for i in range(0, len(x) - n_fft + 1, hop)])
            want = np.abs(np.fft.rfft(frames, axis=1))
            got = stft(WaveBuffer(SR, x), n_fft, hop)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ExtractionError):
            stft(WaveBuffer(SR, np.zeros(1000)), 400, 160)


class TestMfcc:
    def test_default_keeps_twenty_coefficients(self):
        wave = WaveBuffer(SR, np.random.default_rng(3).normal(size=SR // 2))
        out = mfcc(wave)
        assert out.shape[1] == 20

    def test_constant_signal_has_no_frame_variance(self):
        wave = WaveBuffer(SR, np.full(4096, 0.3))
        out = mfcc(wave, n_fft=256, hop=128, n_mels=10, n_mfcc=5)
        assert np.all(out.std(axis=0) < 1e-10)

    def test_tiny_case_matches_matrix_pipeline_oracle(self):
        # independent oracle: explicit DFT sums, loop-built filterbank,
        # and an explicit orthonormal DCT-II matrix
        rng = np.random.default_rng(4)
        sr, n_fft, hop, n_mels, n_mfcc = 64, 8, 4, 4, 2
        x = rng.normal(size=24)
        wave = WaveBuffer(sr, x)
        out = mfcc(wave, n_fft=n_fft, hop=hop, n_mels=n_mels, n_mfcc=n_mfcc)

        win = np.array([0.5 - 0.5 * math.cos(2 * math.pi * n / n_fft) for n in range(n_fft)])
        n_frames = 1 + (len(x) - n_fft) // hop
        bins = n_fft // 2 + 1

        def hz2mel(f):
            return 2595.0 * math.log10(1.0 + f / 700.0)

        def mel2hz(m):
            return 700.0 * (10 ** (m / 2595.0) - 1.0)

        edges = [mel2hz(hz2mel(sr / 2) * i / (n_mels + 1)) for i in range(n_mels + 2)]
        fb = np.zeros((n_mels, bins))
        for j in range(n_mels):
            for k in range(bins):
                f = k * sr / n_fft
                left, center, right = edges[j], edges[j + 1], edges[j + 2]
                fb[j, k] = max(0.0, min((f - left) / (center - left),
                                        (right - f) / (right - center)))

        dct_mat = np.zeros((n_mfcc, n_mels))
        for k in range(n_mfcc):
            scale = math.sqrt(1.0 / n_mels) if k == 0 else math.sqrt(2.0 / n_mels)
            for m in range(n_mels):
                dct_mat[k, m] = scale * math.cos(math.pi * k * (m + 0.5) / n_mels)

        expect = np.zeros((n_frames, n_mfcc))
        for f in range(n_frames):
            frame = x[f * hop:f * hop + n_fft] * win
            mags = np.array([abs(sum(frame[n] * np.exp(-2j * math.pi * k * n / n_fft)
                                     for n in range(n_fft)))
                             for k in range(bins)])
            logmel = np.log(fb @ (mags ** 2) + 1e-10)
            expect[f] = dct_mat @ logmel
        np.testing.assert_allclose(out, expect, atol=1e-6)

    def test_dimension_ordering_validated(self):
        wave = WaveBuffer(SR, np.zeros(2048))
        with pytest.raises(ExtractionError):
            mfcc(wave, n_fft=256, hop=128, n_mels=4, n_mfcc=10)

    def test_filterbank_is_fresh_and_mfcc_unaffected_by_edits(self):
        wave = WaveBuffer(SR, np.random.default_rng(3).normal(size=4000))
        before = mfcc(wave, n_fft=256, hop=128, n_mels=12, n_mfcc=6)
        fb = mel_filterbank(12, 256, SR)
        assert fb.flags.writeable
        fb[:] = 7.0
        assert not np.array_equal(mel_filterbank(12, 256, SR), fb)
        after = mfcc(wave, n_fft=256, hop=128, n_mels=12, n_mfcc=6)
        assert before.tobytes() == after.tobytes()

    def test_filterbank_shape(self):
        fb = mel_filterbank(26, 512, SR)
        assert fb.shape == (26, 257)
        assert np.all(fb >= 0)


class TestUtteranceStats:
    def test_single_frame(self):
        out = utterance_stats(np.array([[2.0, -1.0]]))
        np.testing.assert_allclose(out, [2.0, -1.0, 0.0, 0.0, 2.0, -1.0, 2.0, -1.0])

    def test_hand_arithmetic(self):
        np.testing.assert_allclose(utterance_stats(np.array([[1.0], [3.0]])),
                                   [2.0, 1.0, 1.0, 3.0])

    def test_matches_per_column_loop_oracle(self):
        rng = np.random.default_rng(5)
        seq = rng.normal(size=(50, 6))
        out = utterance_stats(seq)
        for col in range(6):
            vals = [seq[t, col] for t in range(50)]
            mean = sum(vals) / 50
            var = sum((v - mean) ** 2 for v in vals) / 50
            assert abs(out[col] - mean) < 1e-12
            assert abs(out[6 + col] - math.sqrt(var)) < 1e-12
            assert out[12 + col] == min(vals)
            assert out[18 + col] == max(vals)

    def test_empty_rejected(self):
        with pytest.raises(ExtractionError):
            utterance_stats(np.zeros((0, 3)))


def toy_table(dim=3):
    rng = np.random.default_rng(6)
    vecs = {tok: rng.normal(size=dim) for tok in ("<unk>", "good", "bad", "movie", "very")}
    return EmbeddingTable(vectors=vecs, dim=dim)


class TestTextEmbedding:
    def test_all_oov_maps_to_unk(self):
        table = toy_table()
        out = text_embed_lookup(["zzz", "qqq"], table)
        np.testing.assert_array_equal(out[0], table.vectors["<unk>"])
        np.testing.assert_array_equal(out[1], table.vectors["<unk>"])

    def test_shape_preserved(self):
        assert text_embed_lookup(["good", "bad", "movie"], toy_table()).shape == (3, 3)

    def test_lookup_matches_direct_file_parse(self, tmp_path):
        path = tmp_path / "emb.txt"
        lines = ["<unk> 0.0 0.0", "hello 1.5 -2.0", "world 0.25 4.0"]
        path.write_text("\n".join(lines) + "\n")
        table = EmbeddingTable.load(path)
        out = text_embed_lookup(["world", "hello", "noop"], table)
        # oracle: parse the file by hand
        parsed = {}
        for line in lines:
            parts = line.split()
            parsed[parts[0]] = [float(v) for v in parts[1:]]
        np.testing.assert_array_equal(out[0], parsed["world"])
        np.testing.assert_array_equal(out[1], parsed["hello"])
        np.testing.assert_array_equal(out[2], parsed["<unk>"])

    def test_table_without_unk_rejected(self):
        with pytest.raises(ExtractionError):
            EmbeddingTable(vectors={"a": np.zeros(2)}, dim=2)

    def test_empty_tokens_rejected(self):
        with pytest.raises(ExtractionError):
            text_embed_lookup([], toy_table())

    def test_corrupt_tokens_rate_and_determinism(self):
        tokens = ["w"] * 1000
        out1 = corrupt_tokens(tokens, 0.3, seed=9)
        out2 = corrupt_tokens(tokens, 0.3, seed=9)
        assert out1 == out2
        frac = out1.count("<unk>") / len(out1)
        assert 0.2 < frac < 0.4
        assert corrupt_tokens(tokens, 0.0, seed=9) == tokens

    def test_corrupt_tokens_varies_across_sentences(self):
        def lost(tokens):
            out = corrupt_tokens(tokens, 0.5, seed=0)
            assert out == corrupt_tokens(tokens, 0.5, seed=0)
            return [i for i, tok in enumerate(out) if tok == "<unk>"]
        first = "the film was slow but the ending worked".split()
        second = "a bright and warm story of one family".split()
        assert len(first) == len(second) == 8
        assert lost(first) != lost(second)


class TestVisualCsv:
    def _write(self, path, header, rows):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        return path

    def test_au_prefix_selects_all_au_columns(self, tmp_path):
        path = self._write(tmp_path / "v.csv",
                           ["frame", "AU01_r", "AU02_r", "AU04_r"],
                           [[0, 0.1, 0.2, 0.3], [1, 0.4, 0.5, 0.6]])
        out = ingest_visual_csv(path, ["AU"])
        assert out.shape == (2, 3)

    def test_landmarks_plus_aus_concatenate_in_selector_order(self, tmp_path):
        path = self._write(tmp_path / "v.csv",
                           ["x_0", "x_1", "y_0", "y_1", "AU01_r"],
                           [[1, 2, 3, 4, 5]])
        out = ingest_visual_csv(path, ["x_", "y_", "AU"])
        np.testing.assert_array_equal(out, [[1, 2, 3, 4, 5]])
        out2 = ingest_visual_csv(path, ["AU", "x_"])
        np.testing.assert_array_equal(out2, [[5, 1, 2]])

    def test_four_row_manual_parse_oracle(self, tmp_path):
        rows = [[float(r * 10 + c) for c in range(3)] for r in range(4)]
        path = self._write(tmp_path / "v.csv", ["a", "b", "c"], rows)
        out = ingest_visual_csv(path)
        np.testing.assert_array_equal(out, np.array(rows))

    def test_missing_selector_errors(self, tmp_path):
        path = self._write(tmp_path / "v.csv", ["a"], [[1.0]])
        with pytest.raises(ExtractionError):
            ingest_visual_csv(path, ["nope"])

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        path = self._write(tmp_path / "v.csv", ["a", "b"], [[1.0, 2.0], [3.0, "oops"]])
        with pytest.raises(ExtractionError) as exc:
            ingest_visual_csv(path)
        assert "row 3" in str(exc.value) and "'b'" in str(exc.value)


def build_toy_dataset(root, n=2, corrupt=None):
    """WAV + token-file dataset with a label CSV."""
    rng = np.random.default_rng(7)
    root.mkdir(exist_ok=True)
    (root / "emb.txt").write_text(
        "<unk> 0.0 0.0\ngreat 1.0 0.5\nawful -1.0 -0.5\nfilm 0.2 0.1\n")
    rows = []
    texts = ["great film", "awful film", "great great film"]
    for i in range(n):
        wav = root / f"s{i}.wav"
        t = np.arange(SR // 4) / SR
        write_wav(wav, 0.4 * np.sin(2 * np.pi * (200 + 100 * i) * t))
        if corrupt == i:
            wav.write_bytes(b"garbage")
        txt = root / f"s{i}.txt"
        txt.write_text(texts[i % len(texts)])
        rows.append({"id": f"s{i}", "split": "train" if i else "test",
                     "label_m": round(float(rng.uniform(-1, 1)), 4),
                     "audio_path": wav.name, "text_path": txt.name})
    with open(root / "labels.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    return root


# the kinds that read each param, by kind and by feature code
READERS = {
    **{name: ("mfcc", "A2", "hsf") for name in ("n_fft", "hop", "n_mels", "n_mfcc",
                                                "sample_rate")},
    "lld": ("hsf",),
    **{name: ("glove", "T2") for name in ("table", "corrupt_rate", "corrupt_seed")},
    "columns": ("ingest_csv", "V1"),
}


class TestRunDataset:
    def _configs(self):
        return [
            ExtractorConfig("audio", "mfcc", {"n_fft": 256, "hop": 128, "n_mels": 10,
                                              "n_mfcc": 4}),
            ExtractorConfig("text", "glove", {"table": "emb.txt"}),
        ]

    def test_two_sample_toy_dataset(self, tmp_path):
        root = build_toy_dataset(tmp_path / "data")
        bundle = run_dataset(root, self._configs(), root / "labels.csv")
        assert set(bundle.blocks) == {"audio", "text"}
        assert bundle.n == 2
        assert bundle.blocks["text"].feature_dim == 2
        assert bundle.blocks["audio"].feature_dim == 4

    def test_corrupt_wav_strict_mode_lists_id(self, tmp_path):
        root = build_toy_dataset(tmp_path / "data", n=3, corrupt=1)
        with pytest.raises(ExtractionError) as exc:
            run_dataset(root, self._configs(), root / "labels.csv")
        assert "s1" in str(exc.value)

    def test_lenient_mode_drops_failures(self, tmp_path):
        root = build_toy_dataset(tmp_path / "data", n=3, corrupt=1)
        bundle = run_dataset(root, self._configs(), root / "labels.csv",
                             max_failure_fraction=0.5)
        assert bundle.n == 2
        assert "s1" not in bundle.ids

    @pytest.mark.parametrize("fraction", [math.nan, -0.1, 1.5], ids=["nan", "-0.1", "1.5"])
    def test_failure_fraction_outside_0_1_rejected_before_any_read(self, tmp_path, monkeypatch,
                                                                   fraction):
        root = build_toy_dataset(tmp_path / "data", n=3, corrupt=1)
        for name in ("_read_label_csv", "_extract_one", "read_wav"):
            monkeypatch.setattr(f"msa_forge.extractors.{name}", None)  # any read fails
        monkeypatch.setattr(EmbeddingTable, "load", None)
        with pytest.raises(ExtractionError, match=r"max_failure_fraction \(--lenient\) must be "
                                                  r"in \[0, 1\], got"):
            run_dataset(root, self._configs(), root / "labels.csv",
                        max_failure_fraction=fraction)

    def _non_finite_clip(self, tmp_path):
        root = build_toy_dataset(tmp_path / "data", n=3)
        samples = np.full(SR // 4, 0.1, dtype=np.float32)
        samples[100] = np.nan
        scipy.io.wavfile.write(root / "s1.wav", SR, samples)
        return root

    def test_non_finite_wav_strict_mode_names_the_wav(self, tmp_path):
        root = self._non_finite_clip(tmp_path)
        with pytest.raises(ExtractionError, match=r"1/3 samples failed.*s1: .*s1\.wav"):
            run_dataset(root, self._configs(), root / "labels.csv")

    def test_non_finite_wav_lenient_mode_drops_it(self, tmp_path):
        root = self._non_finite_clip(tmp_path)
        bundle = run_dataset(root, self._configs(), root / "labels.csv",
                             max_failure_fraction=0.5)
        assert bundle.ids == ["s0", "s2"]

    def test_rerun_is_bit_identical(self, tmp_path):
        root = build_toy_dataset(tmp_path / "data", n=3)
        a = run_dataset(root, self._configs(), root / "labels.csv")
        b = run_dataset(root, self._configs(), root / "labels.csv")
        assert bundle_equal(a, b)

    def test_feature_code_resolution(self):
        cfg = resolve_config(ExtractorConfig("audio", "A2"))
        assert cfg.kind == "mfcc"
        assert cfg.params["n_mfcc"] == 20
        cfg = resolve_config(ExtractorConfig("vision", "V3"))
        assert cfg.kind == "ingest_csv"
        assert cfg.params["columns"] == ["x_", "y_", "AU"]
        with pytest.raises(ExtractionError):
            resolve_config(ExtractorConfig("audio", "quantum"))

    @pytest.mark.parametrize("name, value", [
        ("n_fft", 512.0), ("hop", "160"), ("n_mels", None), ("n_mfcc", True),
        ("sample_rate", 16000.0), ("corrupt_seed", False), ("corrupt_rate", "0.5"),
        ("corrupt_rate", True), ("lld", 3), ("table", ["emb.txt"]), ("columns", "AU"),
        ("columns", ["AU", 1]),
    ])
    def test_param_of_the_wrong_type_is_named(self, name, value):
        for kind in READERS[name]:
            with pytest.raises(ExtractionError, match=f"'audio'.*param '{name}' must be"):
                resolve_config(ExtractorConfig("audio", kind, {name: value}))

    @pytest.mark.parametrize("kind, name", [("mfcc", "nfft"), ("A2", "nfft"),
                                            ("hsf", "corrupt_seed"), ("stft", "n_mels"),
                                            ("glove", "columns"), ("V1", "table")])
    def test_param_the_kind_does_not_read_is_named(self, kind, name):
        resolved = FEATURE_CODES.get(kind, (kind,))[0]
        takes = ", ".join(EXTRACTOR_PARAMS[resolved])
        with pytest.raises(ExtractionError) as exc:
            resolve_config(ExtractorConfig("audio", kind, {name: 256}))
        assert str(exc.value) == (f"modality 'audio': param {name!r} is not read by "
                                  f"extractor kind {resolved!r}, which takes {takes}")

    @pytest.mark.parametrize("params", [{"lld": "stft", "n_mels": 12},
                                        {"n_mfcc": 6, "lld": "stft", "n_fft": 256},
                                        {"lld": "foo", "n_mels": 12}])
    def test_hsf_cepstral_params_are_unread_unless_lld_is_mfcc(self, params):
        with pytest.raises(ExtractionError) as exc:
            resolve_config(ExtractorConfig("audio", "hsf", params))
        name = next(n for n in params if n in ("n_mels", "n_mfcc"))
        assert str(exc.value) == (f"modality 'audio': param {name!r} is read by extractor "
                                  "kind 'hsf' only when 'lld' is 'mfcc'")

    def test_filled_params_hold_what_the_setting_reads(self):
        on_stft = resolve_config(ExtractorConfig("audio", "hsf", {"lld": "stft", "hop": 64}))
        assert filled_params(on_stft) == {"n_fft": 512, "hop": 64, "sample_rate": None,
                                          "lld": "stft"}
        for params in ({}, {"lld": "mfcc", "n_mels": 12, "n_mfcc": 6}):
            cfg = resolve_config(ExtractorConfig("audio", "hsf", params))
            assert set(filled_params(cfg)) == set(EXTRACTOR_PARAMS["hsf"])

    def test_params_must_be_an_object(self):
        with pytest.raises(ExtractionError, match="params must be an object"):
            resolve_config(ExtractorConfig("audio", "mfcc", [512]))

    def test_well_typed_params_pass(self):
        for kind, params in [
            ("stft", {"n_fft": 256, "hop": 128, "sample_rate": None}),
            ("mfcc", {"n_fft": 256, "hop": 128, "sample_rate": 16000, "n_mels": 12,
                      "n_mfcc": 6}),
            ("hsf", {"n_fft": 256, "hop": 128, "sample_rate": None, "n_mels": 12, "n_mfcc": 6,
                     "lld": "mfcc"}),
            ("glove", {"table": "emb.txt", "corrupt_rate": 0.25, "corrupt_seed": 3}),
            ("glove", {"table": None, "corrupt_rate": 0, "corrupt_seed": 0}),
            ("ingest_csv", {"columns": ["x_"]}),
            ("ingest_csv", {"columns": None}),
        ]:
            assert set(params) == set(EXTRACTOR_PARAMS[kind])  # every param the kind reads
            assert resolve_config(ExtractorConfig("audio", kind, params)).params == params


# settings that no clip can run; each is reported once, before any clip is read
UNRUNNABLE = [
    ("hsf", {"lld": "foo"}, "param 'lld' must be 'mfcc' or 'stft', got 'foo'"),
    ("hsf", {"n_fft": 500}, "n_fft must be a power of two, got 500"),
    ("stft", {"hop": 0}, "hop must be in [1, n_fft], got 0"),
    ("stft", {"n_fft": 64}, "hop must be in [1, n_fft], got 160"),
    ("hsf", {"n_mels": 300}, "need n_mfcc <= n_mels <= n_fft/2+1, got (20, 300, 257)"),
    ("mfcc", {"n_mels": 0, "n_mfcc": 0}, "n_mfcc must be at least 1, got 0"),
    ("mfcc", {"n_mels": -5, "n_mfcc": -10}, "n_mfcc must be at least 1, got -10"),
]


class TestConfigCheckedOnce:
    @pytest.mark.parametrize("kind, params, message", UNRUNNABLE)
    def test_reported_once_before_any_clip(self, tmp_path, monkeypatch, kind, params, message):
        root = build_toy_dataset(tmp_path / "data", n=3)
        monkeypatch.setattr("msa_forge.extractors.read_wav", None)  # any clip read fails
        configs = [ExtractorConfig("audio", kind, params),
                   ExtractorConfig("text", "glove", {"table": "emb.txt"})]
        for lenient in (0.0, 1.0):
            with pytest.raises(ExtractionError) as exc:
                run_dataset(root, configs, root / "labels.csv", max_failure_fraction=lenient)
            assert str(exc.value) == f"modality 'audio': {message}"

    @pytest.mark.parametrize("params, message", [
        ({"corrupt_rate": 1.5}, "corruption rate must be in [0, 1], got 1.5"),
        ({"corrupt_rate": 0.5, "corrupt_seed": -1}, "corruption seed must be non-negative, got -1"),
    ])
    def test_corruption_settings(self, params, message):
        with pytest.raises(ExtractionError) as exc:
            resolve_config(ExtractorConfig("text", "glove", params))
        assert str(exc.value) == f"modality 'text': {message}"
        with pytest.raises(ExtractionError, match=re.escape(message)):
            corrupt_tokens(["a"], params["corrupt_rate"], params.get("corrupt_seed", 0))

    @pytest.mark.parametrize("kind", ["glove", "ingest_csv"])
    def test_text_kind_on_a_wav_fails_the_clip(self, tmp_path, kind):
        root = build_toy_dataset(tmp_path / "data", n=2)
        params = {"table": "emb.txt"} if kind == "glove" else {}
        with pytest.raises(ExtractionError, match=r"2/2 samples failed.*s0\.wav.*UTF-8"):
            run_dataset(root, [ExtractorConfig("audio", kind, params)], root / "labels.csv")

    @pytest.mark.parametrize("table", [".", "s0.wav", "no\x00such.txt"])
    def test_unreadable_embedding_table(self, tmp_path, table):
        root = build_toy_dataset(tmp_path / "data", n=2)
        with pytest.raises(ExtractionError, match="not a readable UTF-8 text file"):
            run_dataset(root, [ExtractorConfig("text", "glove", {"table": table})],
                        root / "labels.csv")

    @pytest.mark.parametrize("kind", [["mfcc"], 3, None])
    def test_kind_that_is_not_a_string(self, kind):
        with pytest.raises(ExtractionError, match="unknown extractor kind"):
            resolve_config(ExtractorConfig("audio", kind, {}))
