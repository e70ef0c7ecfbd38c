"""Exception taxonomy shared by all sidewatch modules.

I/O problems are reported with the builtin OSError; everything that is a
property of the *data* or of a *contract violation* gets its own class so
callers (and the CLI exit-code mapping) can tell them apart.
"""


class SidewatchError(Exception):
    """Base class for all sidewatch-specific errors."""


# --- telemetry ---------------------------------------------------------

class MissingColumnError(SidewatchError):
    """A schema names a column that is not in the file header."""


class RaggedRowError(SidewatchError):
    """A CSV data row has the wrong number of fields."""


class NonMonotonicTimeError(SidewatchError):
    """Time offsets do not strictly increase (or cannot be parsed)."""


class UndecodableRowError(SidewatchError):
    """A CSV line is not valid UTF-8."""


class EmptyTraceError(SidewatchError):
    """A trace file contains a header but no data rows."""


class MalformedNameError(SidewatchError):
    """A trace filename does not follow the underscore-delimited convention."""


class UnknownCategoryError(SidewatchError):
    """A filename category segment is outside the closed category set."""


class BadOnsetError(SidewatchError):
    """A filename onset segment is not a nonnegative number."""


# --- featurize ---------------------------------------------------------

class TooFewRowsError(SidewatchError):
    """Normalization statistics need at least two rows."""


class IndexOutOfRangeError(SidewatchError):
    """A row index is outside the trace."""


# --- neural engine -----------------------------------------------------

class ShapeMismatchError(SidewatchError):
    """An input or gradient shape does not match the layer contract."""


class KernelTooLongError(SidewatchError):
    """Convolution kernel longer than the (padded) input length."""


class StaleCacheError(SidewatchError):
    """A backward pass received a cache from a different layer/forward call."""


# --- models ------------------------------------------------------------

class BadShapeError(SidewatchError):
    """A model builder was given unusable dimensions."""


class NoDataError(SidewatchError):
    """A training call received an empty dataset."""


class WrongSequenceLengthError(SidewatchError):
    """A sequence batch does not match the model's configured length."""


class VersionMismatchError(SidewatchError):
    """A model artifact was written by an incompatible format version."""


class CorruptArtifactError(SidewatchError):
    """A model artifact fails checksum or structural validation."""


# --- detector ----------------------------------------------------------

class AlertBeforeOnsetError(SidewatchError):
    """Detection fired before ground-truth onset (a false-positive run)."""


# --- evaluation harness -------------------------------------------------

class InsufficientStratumError(SidewatchError):
    """A stratified split cannot satisfy the requested counts."""


class EmptyPopulationError(SidewatchError):
    """Metrics requested over zero evaluated items."""


class NoSequencesError(SidewatchError):
    """Every file is shorter than the requested sequence length."""


# --- synthetic corpus / CLI ----------------------------------------------

class BadSpecError(SidewatchError):
    """A corpus or run specification is internally inconsistent."""
