"""Exception hierarchy shared across the toolkit.

The CLI maps these onto stable exit codes: usage problems exit 1,
validation problems (bad data, bad config, malformed containers) exit 2,
runtime failures (training divergence, I/O during a run) exit 3.
"""

from contextlib import contextmanager


class MsaForgeError(Exception):
    """Base class for all toolkit errors."""


class UsageError(MsaForgeError):
    """Bad command line: unknown subcommand, flag, or flag value."""


class ValidationError(MsaForgeError):
    """Invalid data or configuration supplied by the caller."""


class BundleFormatError(ValidationError):
    """A bundle, checkpoint ``params.bin`` or run ``reps.bin`` is malformed:
    missing files, bad magic/header, data or name past the end of the file,
    trailing bytes, or disagreement with its manifest."""


class BundleValidationError(ValidationError):
    """Feature container parses but violates an invariant (label out of
    range, NaN cell, nonzero padding, duplicate id, ...)."""


class EmptySplitError(ValidationError):
    """A requested split contains no samples."""


class ExtractionError(ValidationError):
    """Feature extraction failed: unreadable input file, unsupported
    codec, unknown extractor kind, or per-sample failures in strict mode."""


class ModelError(ValidationError):
    """Unknown model name, missing hyperparameter, or a model/bundle
    mismatch detected before training starts."""


class ShapeError(MsaForgeError):
    """Tensor shapes do not conform for the attempted operation."""


class TrainingDivergedError(MsaForgeError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, param_name: str | None, message: str):
        self.epoch = epoch
        self.param_name = param_name
        super().__init__(message)

    def __reduce__(self):
        # pickle calls cls(*args); keep the epoch and parameter name, so the
        # error crosses from a worker process with its class intact
        return type(self), (self.epoch, self.param_name, *self.args), self.__dict__


class MetricError(ValidationError):
    """A metric is undefined for the given inputs (e.g. zero-variance
    correlation)."""


@contextmanager
def parsing(path):
    """Raise a parse or lookup error from reading the file at ``path`` (not
    JSON, a missing field, a field of the wrong type) as a ValidationError
    that names the file."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path} is malformed: {exc!r}") from exc
