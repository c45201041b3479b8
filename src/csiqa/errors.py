"""Exception types shared across the package, and the two type checks
that every config and settings field goes through."""

from numbers import Integral, Real


class ContractError(ValueError):
    """A precondition on an operation's inputs was violated."""


class ShapeError(ContractError):
    """Array shapes are incompatible for the requested operation."""


class CorrelationUndefinedError(ContractError):
    """Correlation is undefined (zero variance or degenerate input)."""


class NumericalDivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class CheckpointError(RuntimeError):
    """Base class for checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """File is not a valid checkpoint (bad magic, truncated, malformed)."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class CheckpointChecksumError(CheckpointError):
    """Checkpoint payload does not match its trailing CRC32."""


def check_integer(name: str, value, least: int) -> None:
    """``ContractError`` naming ``name`` unless ``value`` is an integer, not
    a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ContractError(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(name: str, value) -> None:
    """``ContractError`` naming ``name`` unless ``value`` is a real number
    and not a bool; NaN passes, each field bounds it as it must."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ContractError(f"{name} must be a number, got {value!r}")
