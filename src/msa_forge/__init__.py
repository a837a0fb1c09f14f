"""msa_forge: a self-contained multimodal sentiment analysis benchmark
toolkit: feature extraction, feature bundles, fusion-model training,
metric/representation analysis, and robustness testing.

No module of the package imports scipy at module level. The two functions
that call it (``extractors.read_wav`` and the MFCC's DCT) import it where it
is used, because loading any scipy submodule takes ~0.25 s and most work
(training, ``perturb``, ``report``, ``--help``) never calls it.

``train_run`` and ``cli_main`` keep freed heap memory in the process on
glibc (``_heap``); importing the package leaves the allocator alone.
"""

import logging

from .analysis import MetricReport, ProjectionResult, compute_metrics, make_benchmark_report, pca_project
from .autodiff import ParamSet, Tape, Tensor, backward, grad_check
from .bundle import (
    FeatureBundle,
    Manifest,
    ModalityBlock,
    SampleMeta,
    bundle_equal,
    read_bundle,
    split_view,
    write_bundle,
)
from .extractors import (
    EmbeddingTable,
    ExtractorConfig,
    WaveBuffer,
    ingest_visual_csv,
    mfcc,
    read_wav,
    run_dataset,
    stft,
    text_embed_lookup,
    utterance_stats,
)
from .models import (
    Batch,
    Model,
    ModelConfig,
    ModelOutput,
    batch_from_bundle,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .robustness import (
    PerturbationSpec,
    TaggedEvalReport,
    add_feature_noise,
    drop_modality,
    evaluate_tagged,
    render_tagged_reports,
)
from .synthetic import make_synthetic_bundle
from .trainer import RunResult, TrainConfig, get_config_regression, multi_seed_run, train_run

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
