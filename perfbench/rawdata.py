"""Seeded raw dataset for the ``pipeline`` workload.

Writes what ``msa-forge extract`` reads: 16 kHz mono WAV clips, one token
file per clip, per-frame action-unit CSVs, a small embedding table, a
tagged label CSV and the extractor config. Every modality carries a
latent in U(-1, 1) that the extracted features expose, and the label is
the clipped sum of the three latents, so a model trained on the
extracted bundle can learn it:

* audio: a tone whose amplitude is exp(1.5 * latent), which shifts the
  log-mel energies (and so MFCC c0) linearly with the latent;
* text: tokens drawn from a vocabulary whose embedding dim 0 is the
  token's polarity, picked close to the latent;
* vision: AU columns whose first entry is the latent plus noise; the CSV
  also has landmark columns that the ``AU`` selector must skip.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.io.wavfile

SAMPLE_RATE = 16000
EMBED_DIM = 8
N_AU = 5
VOCAB = 40
SCENARIOS = ("Films(TV)", "Variety Show", "Life(Vlog)")

# default mfcc parameters, so that predict's feature replay matches extraction
EXTRACTOR_CONFIG = {
    "audio": {"kind": "mfcc", "params": {}},
    "text": {"kind": "glove", "params": {"table": "embeddings.txt"}},
    "vision": {"kind": "ingest_csv", "params": {"columns": ["AU"]}},
}


def make_raw_dataset(root: Path, n_clips: int, seed: int) -> dict:
    """Write the raw dataset under ``root`` and return a description:
    the label CSV, config and embedding paths plus one record per clip."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0xA0D10])

    polarity = np.linspace(-1.0, 1.0, VOCAB)
    words = [f"w{i:02d}" for i in range(VOCAB)]
    with open(root / "embeddings.txt", "w", encoding="utf-8") as fh:
        for word, pol in [("<unk>", 0.0)] + list(zip(words, polarity)):
            vec = np.concatenate([[pol], rng.uniform(-0.5, 0.5, EMBED_DIM - 1)])
            fh.write(word + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")
    (root / "extractors.json").write_text(json.dumps(EXTRACTOR_CONFIG, indent=2) + "\n",
                                          encoding="utf-8")

    n_train = int(round(n_clips * 0.6))
    n_valid = int(round(n_clips * 0.2))
    rows = []
    for i in range(n_clips):
        sid = f"clip{i:04d}"
        z_t, z_a, z_v = rng.uniform(-1.0, 1.0, size=3)
        label = float(np.clip(z_t + z_a + z_v, -3.0, 3.0))

        seconds = rng.uniform(1.0, 3.0)
        t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
        freq = rng.uniform(200.0, 800.0)
        wave = 0.05 * np.exp(1.5 * z_a) * np.sin(2 * np.pi * freq * t)
        wave += rng.normal(0.0, 0.002, size=t.size)
        pcm = np.clip(wave * 32767.0, -32768, 32767).astype(np.int16)
        scipy.io.wavfile.write(root / f"{sid}.wav", SAMPLE_RATE, pcm)

        n_tokens = int(rng.integers(4, 13))
        picks = np.clip(np.rint((z_t + rng.normal(0.0, 0.15, n_tokens) + 1.0)
                                / 2.0 * (VOCAB - 1)), 0, VOCAB - 1).astype(int)
        tokens = [words[k] for k in picks]
        (root / f"{sid}.txt").write_text(" ".join(tokens) + "\n", encoding="utf-8")

        n_frames = max(2, int(seconds * 15))
        with open(root / f"{sid}.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(["frame", "x_0", "y_0"]
                              + [f"AU{k + 1:02d}_r" for k in range(N_AU)]) + "\n")
            for f in range(n_frames):
                aus = [z_v + rng.normal(0.0, 0.1)] + list(rng.uniform(0.0, 1.0, N_AU - 1))
                cells = [str(f)] + [f"{v:.5f}" for v in rng.uniform(0, 100, 2)]
                fh.write(",".join(cells + [f"{v:.5f}" for v in aus]) + "\n")

        split = "train" if i < n_train else ("valid" if i < n_train + n_valid else "test")
        mag = abs(label)
        rows.append({
            "id": sid, "split": split, "label_m": f"{label:.6f}",
            "label_t": f"{z_t:.6f}", "label_a": f"{z_a:.6f}", "label_v": f"{z_v:.6f}",
            "scenario": SCENARIOS[i % len(SCENARIOS)],
            "instance_type": "easy" if mag > 1.5 else ("difficult" if mag < 0.5 else "common"),
            "text_path": f"{sid}.txt", "audio_path": f"{sid}.wav",
            "vision_path": f"{sid}.csv",
            "tokens": " ".join(tokens),
        })

    columns = ["id", "split", "label_m", "label_t", "label_a", "label_v", "scenario",
               "instance_type", "text_path", "audio_path", "vision_path"]
    with open(root / "labels.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row[c] for c in columns) + "\n")
    return {
        "root": root,
        "labels": root / "labels.csv",
        "config": root / "extractors.json",
        "embedding": root / "embeddings.txt",
        "clips": rows,
    }
