"""Exception types shared across the package, and the settings table.

``KINDS`` declares every setting once, as name -> kind. Library arguments,
config objects and checkpoint meta go through ``check``, and command-line,
config-file and environment text through ``Kind.cast``. Rules that tie two
settings together stay with the object that holds both.
"""

from dataclasses import fields
from numbers import Integral, Real
from typing import Any, Callable, NamedTuple


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


class Kind(NamedTuple):
    """One kind of setting: the words its error gives, the test a value
    must pass and the reader of its text."""

    words: str
    test: Callable[[Any], bool]
    parse: Callable[[str], Any] = float

    def check(self, name: str, value):
        """``value``; ``ContractError`` naming ``name`` unless it passes."""
        if not self.test(value):
            raise ContractError(f"{name} must be {self.words}, got {value!r}")
        return value

    def cast(self, name: str, text: str):
        """The checked value that ``text`` spells."""
        try:
            return self.check(name, self.parse(text))
        except ValueError:  # ContractError is one
            raise ContractError(f"{name} must be {self.words}, got {text!r}") from None


def _real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _integer(least: int) -> Kind:
    return Kind(f"an integer >= {least}", lambda v: isinstance(v, Integral)
                and not isinstance(v, bool) and v >= least, int)


def _choice(*options: str) -> Kind:
    return Kind(f"one of {options}", lambda v: v in options, str)


# Every setting by name. A non-negative number fails NaN; a rate passes it,
# since a non-finite update is a divergence, not an input error.
KINDS = {
    "variant": _choice("cl-iqa", "cs-iqa"),
    "ratio_mode": _choice("fixed", "arbitrary"),
    "kind": _choice("noise", "blur"),  # a toy set's distortion
    "ratio": Kind("a number in (0, 1]", lambda v: _real(v) and 0.0 < v <= 1.0),
    **dict.fromkeys(("init_std", "embed_gain"),
                    Kind("a number >= 0", lambda v: _real(v) and v >= 0)),
    **dict.fromkeys(("lr", "weight_decay"),
                    Kind("a non-negative number", lambda v: _real(v) and not v < 0)),
    **dict.fromkeys(("depth", "seed", "steps", "epochs", "val_every"), _integer(0)),
    **dict.fromkeys(("block_size", "embed_dim", "heads", "window", "crop_size", "batch",
                     "width", "crops", "count", "size"), _integer(1)),
}


def check(name: str, value, label: str | None = None) -> None:
    """``ContractError`` naming ``label`` (default ``name``) unless
    ``value`` is of the kind ``KINDS[name]``."""
    KINDS[name].check(label or name, value)


def check_fields(obj) -> None:
    """``check`` each dataclass field of ``obj`` under its own name; a
    field whose default is None may be None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is not None or f.default is not None:
            check(f.name, value)
