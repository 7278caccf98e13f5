"""Exception hierarchy shared across the package.

``InputError`` subclasses mark problems with user-supplied data (bad tokens,
malformed files); everything else under ``ToneLabError`` is a processing
failure. The CLI maps the former to exit code 2 and the latter to exit code 1.
"""
from contextlib import contextmanager


class ToneLabError(Exception):
    """Base class for all errors raised by tonelab."""


class InputError(ToneLabError, ValueError):
    """User-supplied input is malformed or missing."""


class TranscriptionError(InputError):
    """A tone transcription token is not a valid 2- or 3-digit sequence."""


class CorpusError(InputError):
    """A corpus / gold-label file violates the TSV contract."""


class AudioError(InputError):
    """A WAV file is missing, malformed, or unusable for analysis."""


class VoicingError(ToneLabError):
    """Too few voiced frames to extract a pitch contour."""


@contextmanager
def naming(source: str | None):
    """Re-raise a ToneLabError from the block as the same type with ``source: ``
    before its message; a None source leaves errors as they are."""
    try:
        yield
    except ToneLabError as exc:
        if source is None:
            raise
        raise type(exc)(f"{source}: {exc}") from exc
