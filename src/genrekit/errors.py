"""Exception hierarchy shared across the toolkit."""


class GenrekitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(GenrekitError):
    """Invalid configuration (exit code 2)."""


class DataError(GenrekitError):
    """Invalid or inconsistent input data (exit code 3)."""


class NumericError(GenrekitError):
    """Numeric failure such as a non-finite loss (exit code 4)."""


# --- label space ---

class EmptyPath(DataError):
    pass


class DepthExceeded(DataError):
    pass


class UnknownPath(DataError):
    pass


class EmptyMatrix(DataError):
    pass


class DimensionTooLarge(ConfigError):
    pass


class ZeroFactorItem(NumericError):
    pass


class ZeroVector(NumericError):
    pass


# --- text features ---

class EmptyCorpus(DataError):
    pass


class DegenerateLabel(DataError):
    pass


# --- audio features / binary formats ---

class BadMagic(DataError):
    pass


class TruncatedFile(DataError):
    pass


class NonFiniteValue(DataError):
    pass


class TrailingBytes(DataError):
    pass


class StatsDimensionMismatch(DataError):
    pass


# --- neural core ---

class ShapeMismatch(ConfigError):
    pass


class ConfigInvalid(ConfigError):
    pass


class NonFiniteLoss(NumericError):
    pass


class BadModelHeader(DataError):
    """A checkpoint header that declares no valid graph."""


# --- model zoo ---

class EmptyAlbum(DataError):
    pass


class MissingModality(DataError):
    pass


# --- metrics ---

class KOutOfRange(ConfigError):
    pass


class AllLabelsSkipped(DataError):
    pass


# --- pipeline ---

class ParseError(DataError):
    def __init__(self, line_no, message, path):
        super().__init__(f"{path}: line {line_no}: {message}")
        self.line_no = line_no


class DuplicateId(DataError):
    pass


class DanglingPath(DataError):
    pass


class TooFewItems(DataError):
    pass


class IoError(DataError):
    pass
