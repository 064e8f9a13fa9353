"""Exception hierarchy shared across the package."""

import numbers
from dataclasses import fields

import numpy as np


class ImdnerError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ImdnerError):
    """Malformed corpus or embedding input; carries a line number where known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(ImdnerError):
    """A label outside the configured label set."""


class TaggingError(ImdnerError):
    """A BIO tag sequence that violates the scheme (e.g. I- after O)."""


class ValidationError(ImdnerError):
    """Structurally invalid data (overlapping spans, bad bounds, ...)."""


class AlignmentError(ImdnerError):
    """Two corpora that should share tokenization diverge."""


class FormatError(ParseError):
    """Malformed embedding file."""


class NumericError(ImdnerError):
    """NaN/Inf encountered; names the computation stage."""


def check_finite(arr, stage):
    """Raise NumericError naming `stage` if `arr` holds a NaN or an Inf."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {stage}")


def check_field_types(obj):
    """Raise ValidationError for the first `int`, `float` or `str` field of
    dataclass `obj` that holds a bool or a value of another type."""
    kinds = {"int": numbers.Integral, "float": numbers.Real, "str": str}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in kinds and (isinstance(value, bool) or not isinstance(value, kinds[f.type])):
            raise ValidationError(f"{f.name} must be of type {f.type}, got {value!r}")


class ConfigError(ImdnerError):
    """Invalid configuration value or rule."""


class CheckpointError(ImdnerError):
    """Base class for checkpoint I/O failures."""


class UnsupportedVersionError(CheckpointError):
    """Checkpoint format version not understood by this build."""

    def __init__(self, found, supported):
        super().__init__(
            f"checkpoint format version {found} is not supported "
            f"(this build reads version {supported})"
        )
        self.found = found
        self.supported = supported


class IntegrityError(CheckpointError):
    """Checkpoint payload truncated or shape-inconsistent."""
