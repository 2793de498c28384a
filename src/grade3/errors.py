"""Exception types shared across the package.

Every error raised by the public API derives from :class:`Grade3Error`, so
callers can catch one base class.  All of them also derive from
:class:`ValueError`: they signal bad arguments or bad input documents, never
internal failures.
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
    "document_fields",
]


class Grade3Error(ValueError):
    """Base class for all errors raised by this package."""


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


def document_fields(doc: object, what: str, fields: tuple[tuple[str, type], ...]) -> tuple[Any, ...]:
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
