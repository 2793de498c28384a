"""Exception types shared across the package.

Every error raised by the public API derives from :class:`Grade3Error`, so
callers can catch one base class.  All of them also derive from
:class:`ValueError`: they signal bad arguments or bad input documents, never
internal failures.  A predicate, such as
:func:`grade3.planner.verify_certificate`, raises none: it returns False on
anything it cannot replay.  Every other public function refuses a bad
argument with a :class:`Grade3Error`, worded by :func:`_require` for one of the
wrong type and by :meth:`Grade3Error._malformed` for a record whose fields are.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "Grade3Error",
    "InvalidFormat",
    "InvalidLabel",
    "DimensionMismatch",
    "UnknownArrangement",
    "UnsupportedProfile",
    "PreconditionViolated",
    "UnsupportedSpec",
    "Phi2Mismatch",
    "OutOfDomain",
    "DocumentError",
]


class Grade3Error(ValueError):
    """Base class for all errors raised by this package."""

    @classmethod
    def _malformed(cls, record: tuple, exc: Exception) -> Grade3Error:
        """This error, refusing ``record``, whose fields raised ``exc`` when read as their types.

        A :class:`KeyError`, from a mapping that lacks an entry the record's
        other fields call for, is worded by the key it names.
        """
        detail = f"no entry {_shown(exc.args[0])}" if isinstance(exc, KeyError) else exc
        return cls(f"{type(record).__name__} has a field of the wrong type ({detail})")


class InvalidFormat(Grade3Error):
    """A format (m, n) has non-positive or non-integer coordinates."""


class InvalidLabel(Grade3Error):
    """A class label is malformed or has out-of-range parameters."""


class DimensionMismatch(Grade3Error):
    """A multiplication table does not fit the requested format."""


class UnknownArrangement(Grade3Error):
    """An arrangement id is unknown or incompatible with the class."""


class UnsupportedProfile(Grade3Error):
    """A rank profile is outside the supported table."""


class PreconditionViolated(Grade3Error):
    """A linkage rule was applied to an input outside its hypotheses."""


class UnsupportedSpec(Grade3Error):
    """A link specification is outside the supported cases."""


class Phi2Mismatch(Grade3Error):
    """The unit-product hypothesis (e1*e2 = f1) fails for the given table."""


class OutOfDomain(Grade3Error):
    """A query lies outside the domain a function is defined on."""


class DocumentError(Grade3Error):
    """A JSON document does not match the expected schema."""


def _decimal(value: int) -> str:
    """An integer in decimal, or ``2**N or more`` (``-2**N or less``) if it has too many digits to print."""
    try:
        return str(value)
    except ValueError:  # beyond the interpreter's limit on printed digits
        return f"-2**{value.bit_length() - 1} or less" if value < 0 else f"2**{value.bit_length() - 1} or more"


def _shown(value: object) -> str:
    """``repr(value)``, with an int, also one inside a tuple, worded by :func:`_decimal`."""
    if type(value) is int:
        return _decimal(value)
    if type(value) is tuple:
        items = [_shown(item) for item in value]
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    return repr(value)


def _require(value: object, kind: type, error: type[Grade3Error]) -> None:
    """Refuse with ``error`` a ``value`` that is not a ``kind``, showing it by :func:`_shown`."""
    if not isinstance(value, kind):
        raise error(f"expected {kind.__name__}, got {_shown(value)}")


def _require_ints(**bounds: object) -> None:
    """Refuse with :class:`OutOfDomain` a bound that is not exactly an ``int`` (a ``bool`` is not)."""
    for name, value in bounds.items():
        if type(value) is not int:
            raise OutOfDomain(f"{name} must be an integer, got {_shown(value)}")


def _document_fields(doc: object, what: str, fields: tuple[tuple[str, type], ...]) -> tuple[Any, ...]:
    """The values of a JSON object with exactly the named fields, in order.

    ``fields`` pairs each field name with the type its value must have.
    Raises :class:`DocumentError` when ``doc`` is not an object, when it has
    unknown or missing fields, or when a value has the wrong type; a
    ``bool`` never counts as an ``int`` (nor as anything else).
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} must be an object, got {type(doc).__name__}")
    names = [name for name, _ in fields]
    if set(doc) != set(names):
        unknown = sorted(str(key) for key in doc if key not in names)
        missing = [name for name in names if name not in doc]
        parts = [f"{kind} fields {keys}" for kind, keys in (("unknown", unknown), ("missing", missing)) if keys]
        raise DocumentError(f"{what} has " + " and ".join(parts))
    values = tuple(doc[name] for name in names)
    for (name, kind), value in zip(fields, values):
        if not isinstance(value, kind) or isinstance(value, bool):
            raise DocumentError(f"{what} field {name!r} must be {kind.__name__}, got {type(value).__name__}")
    return values
