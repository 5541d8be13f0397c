"""Exception types shared across the pipeline.

Every error raised on a contract violation derives from AffektError so the
CLI can map failures to exit codes in one place. Errors that mean "the caller
handed us unusable input or a missing artifact" additionally derive from
UsageError and exit with status 2; everything else exits 1.
"""

from __future__ import annotations


class AffektError(Exception):
    """Base class for all pipeline errors."""


class UsageError(AffektError):
    """Bad invocation: missing inputs, malformed config, unreadable artifacts."""


# --- signal layer ---

class EdgeOutOfRange(UsageError):
    """Filter band edges violate 0 < lo (< hi) < fs/2."""


class InvalidOrder(UsageError):
    """Filter order must be a positive integer."""


# --- entropy layer ---

class SeriesTooShort(UsageError):
    """Series shorter than the m+2 samples template matching needs."""


class ScaleTooLarge(UsageError):
    """Coarse-graining scale leaves too few points."""


# --- feature layer ---

class WindowTooShort(UsageError):
    """Window shorter than one PSD segment."""


class NyquistExceeded(UsageError):
    """Requested band extends past fs/2."""


class EmptyBand(UsageError):
    """No frequency bin of the PSD segment falls in 0 < f <= max_freq_hz."""


# --- dataset layer ---

class MissingFile(UsageError):
    """A required file or directory does not exist."""


class StaleArtifact(UsageError):
    """An artifact was made from other inputs or settings than the ones now given."""


class InvalidFormat(UsageError):
    """A binary artifact has a bad magic, version, or truncated payload."""


class NonFiniteSample(UsageError):
    """A recording or feature file holds NaN or inf; message names the file and the value's place."""


class LayoutMismatch(UsageError):
    """A subject's sample rate or channel names differ from the first subject's."""


class ShapeMismatch(AffektError):
    """Array payload size disagrees with its declared shape."""


class PayloadSizeMismatch(ShapeMismatch, UsageError):
    """A float32 payload on disk is not the size its sidecar, manifest or header declares."""


class MalformedEvent(UsageError):
    """An events table row is unparseable; message names the row."""


class ClassTooSmall(UsageError):
    """A minority class has too few members for k-neighbor interpolation; label is that class."""

    def __init__(self, message: str, label=None):
        super().__init__(message)
        self.label = label


class EmptyClass(AffektError):
    """Split requested over an empty window collection."""


class RecordingTooShort(UsageError):
    """Recording shorter than one analysis window."""


# --- model layer ---

class NonFiniteActivation(AffektError):
    """NaN or inf appeared in a forward pass."""


class NonFiniteGradient(AffektError):
    """NaN or inf appeared in a backward pass."""


class NonFiniteLoss(AffektError):
    """Training loss became NaN or inf; message names the epoch."""


class EmptyEvaluationSet(UsageError):
    """Evaluation requested on zero batches."""
