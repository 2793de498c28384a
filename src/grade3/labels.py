"""Resolution formats and Tor-algebra class labels.

A *format* ``(m, n)`` records the ranks of the first and third free modules
in a length-3 free resolution; the middle module then has rank ``m + n - 1``
and the total Betti number is ``2(m + n)``.

A *class label* names the multiplicative structure of the associated
Tor algebra: ``B``, ``C(3)``, ``T``, ``G(r)`` with ``r >= 2``, or ``H(p, q)``
with ``p, q >= 0``.  Labels are immutable values with total ordering, text
round-tripping, and a fixed table of multiplication invariants ``(p, q, r)``.
Formats, labels and invariants are ``NamedTuple`` types: they order field-wise
and compare equal to the plain tuples of their fields.

The constructors and parsers return one shared object per distinct value:
equal formats, and equal labels, are the same object.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidFormat, InvalidLabel, _decimal, _require

__all__ = [
    "Format",
    "make_format",
    "parse_format",
    "betti_total",
    "ClassLabel",
    "CLASS_B",
    "CLASS_C3",
    "CLASS_T",
    "class_G",
    "class_H",
    "parse_label",
    "ClassInvariants",
    "class_invariants",
    "OPAQUE",
]


class Format(NamedTuple):
    """Ranks ``(m, n)`` of the outer modules of a length-3 resolution."""

    m: int
    n: int

    @property
    def dim2(self) -> int:
        """Rank of the middle module, ``m + n - 1``."""
        return self.m + self.n - 1

    def __str__(self) -> str:
        return f"({self.m},{self.n})"


# The interpreter prints every integer below this, whatever its limit on printed digits (at least 640).
_ALWAYS_PRINTED = 10**640


def _prints(value: int) -> bool:
    """Whether ``str(value)`` works: false beyond the interpreter's limit on printed digits."""
    try:
        str(value)
    except ValueError:
        return False
    return True


# One shared object per value.  Called only with validated plain ints: a bool would hash like 0 or 1,
# an unhashable argument would raise TypeError and an int subclass would be handed to later plain calls.
_shared_format = lru_cache(maxsize=None)(Format)


def make_format(m: int, n: int) -> Format:
    """Validated constructor: both coordinates must be positive integers that print."""
    # The usual call, checked at once: m | n is at least as large as both.
    if type(m) is int and type(n) is int and m >= 1 and n >= 1 and m | n < _ALWAYS_PRINTED:
        return _shared_format(m, n)
    for name, value in (("m", m), ("n", n)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidFormat(f"format coordinate {name} must be an integer, got {value!r}")
        if value < 1:
            raise InvalidFormat(f"format coordinate {name} must be >= 1, got {_decimal(value)}")
        if not _prints(value):
            raise InvalidFormat(f"format coordinate {name} is {_decimal(value)}, too many digits to print")
    return _shared_format(int(m), int(n))


_FORMAT_RE = re.compile(r"^\((\d+),(\d+)\)$")


def parse_format(text: str) -> Format:
    """Parse the text form ``"(m,n)"`` produced by ``str(Format)``."""
    _require(text, str, InvalidFormat)
    match = _FORMAT_RE.match(text.strip())
    if match is None:
        raise InvalidFormat(f"cannot parse format from {text!r}; expected \"(m,n)\"")
    try:
        m, n = int(match.group(1)), int(match.group(2))
    except ValueError as exc:  # more digits than the interpreter converts
        raise InvalidFormat(f"cannot parse format: {exc}") from exc
    return make_format(m, n)


def betti_total(fmt: Format) -> int:
    """Total Betti number of a resolution with the given format."""
    _require_types(fmt)
    try:
        return 2 * (fmt.m + fmt.n)
    except (AttributeError, TypeError) as exc:
        raise _malformed_argument(exc, fmt) from None


class ClassLabel(NamedTuple):
    """One of the labels B, C(3), T, G(r), H(p,q), or the opaque label ``*``.

    ``tag`` is one of ``"B"``, ``"C3"``, ``"G"``, ``"H"``, ``"T"``, or ``"*"``
    for :data:`OPAQUE`; the two integer slots hold ``r`` for G and ``(p, q)``
    for H and are zero otherwise.  Use the module-level constructors rather
    than instantiating directly: ``class_G`` and ``class_H`` validate and
    normalize parameters.
    """

    tag: str
    a: int = 0
    b: int = 0

    @property
    def r(self) -> int:
        if self.tag != "G":
            raise InvalidLabel(f"label {self} has no parameter r")
        return self.a

    @property
    def p(self) -> int:
        if self.tag != "H":
            raise InvalidLabel(f"label {self} has no parameter p")
        return self.a

    @property
    def q(self) -> int:
        if self.tag != "H":
            raise InvalidLabel(f"label {self} has no parameter q")
        return self.b

    def __str__(self) -> str:
        if self.tag == "C3":
            return "C(3)"
        if self.tag == "G":
            return f"G({self.a})"
        if self.tag == "H":
            return f"H({self.a},{self.b})"
        return self.tag


CLASS_B = ClassLabel("B")
CLASS_C3 = ClassLabel("C3")
CLASS_T = ClassLabel("T")
# The label of an axiom whose class its source does not pin: tag ``*``, which
# certificate documents print; only the rule ``linktoT`` accepts it.
OPAQUE = ClassLabel("*")
# Like _shared_format: one object per G or H label, built from validated ints.
_shared_label = lru_cache(maxsize=None)(ClassLabel)


def _parameter(tag: str, name: str, value: object) -> int:
    """A label parameter as a plain int: a non-negative integer that the
    interpreter can print, or :class:`InvalidLabel`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidLabel(f"{tag} parameter {name} must be a non-negative integer, got {value!r}")
    value = int(value)
    if value < 0:
        raise InvalidLabel(f"{tag} parameter {name} must be a non-negative integer, got {_decimal(value)}")
    if not _prints(value):
        raise InvalidLabel(f"{tag} parameter {name} is {_decimal(value)}, too many digits to print")
    return value


def class_H(p: int, q: int) -> ClassLabel:
    """Label H(p, q); both parameters must be non-negative integers that print."""
    # The usual call, checked at once: p | q is negative when either is, and at least as large as both.
    if type(p) is int and type(q) is int and 0 <= p | q < _ALWAYS_PRINTED:
        return _shared_label("H", p, q)
    return _shared_label("H", _parameter("H", "p", p), _parameter("H", "q", q))


def class_G(r: int) -> ClassLabel:
    """Label G(r).

    Requires ``r >= 0``, an integer that prints; the degenerate
    multiplication patterns G(0) and G(1) coincide with H(0,0) and H(0,1)
    and are normalized to those labels, so a G label always has ``r >= 2``.
    """
    r = _parameter("G", "r", r)
    if r == 0:
        return class_H(0, 0)
    if r == 1:
        return class_H(0, 1)
    return _shared_label("G", r)


_LABEL_RE = re.compile(r"^(?:(B|T)|C\((3)\)|G\((\d+)\)|H\((\d+),(\d+)\))$")


def parse_label(text: str) -> ClassLabel:
    """Parse the text form produced by ``str(ClassLabel)``.

    Accepts ``"B"``, ``"T"``, ``"C(3)"``, ``"G(r)"``, ``"H(p,q)"`` and applies
    the same normalization as the constructors (so ``"G(1)"`` parses to
    ``H(0,1)``).
    """
    _require(text, str, InvalidLabel)
    match = _LABEL_RE.match(text.strip())
    if match is None:
        raise InvalidLabel(
            f"cannot parse class label from {text!r}; "
            "expected one of B, C(3), T, G(r), H(p,q)"
        )
    bt, c3, g, hp, hq = match.groups()
    if bt is not None:
        return CLASS_B if bt == "B" else CLASS_T
    if c3 is not None:
        return CLASS_C3
    try:
        params = [int(x) for x in (g, hp, hq) if x is not None]
    except ValueError as exc:  # more digits than the interpreter converts
        raise InvalidLabel(f"cannot parse class label: {exc}") from exc
    return class_G(*params) if g is not None else class_H(*params)


class ClassInvariants(NamedTuple):
    """Multiplication invariants (p, q, r) attached to a class label.

    ``p = dim A1*A1``, ``q = dim A1*A2``, and ``r`` is the rank of the map
    ``A2 -> Hom(A1, A3)`` induced by multiplication.
    """

    p: int
    q: int
    r: int


def class_invariants(label: ClassLabel) -> ClassInvariants:
    """The fixed (p, q, r) triple each class realizes."""
    _require_types(label=label)
    if label.tag == "B":
        return ClassInvariants(1, 1, 2)
    if label.tag == "C3":
        return ClassInvariants(3, 1, 3)
    if label.tag == "T":
        return ClassInvariants(3, 0, 0)
    if label.tag == "G":
        return ClassInvariants(0, 1, label.a)
    if label.tag == "H":
        return ClassInvariants(label.a, label.b, label.b)
    raise InvalidLabel(f"unknown class tag {label.tag!r}")


def _require_types(fmt: object = Format(1, 1), label: object = OPAQUE) -> None:
    """The argument check of the public functions that take a label or a format.

    Refuses, by :func:`grade3.errors._require`, a ``label`` that is not a
    :class:`ClassLabel` with :class:`InvalidLabel` (a function that takes no
    opaque label refuses :data:`OPAQUE` itself), then a ``fmt`` that is not a
    :class:`Format`, a plain tuple included, with :class:`InvalidFormat`.
    Each default passes, so a call that names one argument checks only that one.
    """
    _require(label, ClassLabel, InvalidLabel)
    _require(fmt, Format, InvalidFormat)


def _malformed_argument(exc: Exception, fmt: Format = Format(1, 1), label: ClassLabel = OPAQUE) -> Exception:
    """The refusal of a call, past :func:`_require_types`, that raised ``exc`` reading its arguments.

    Worded by :meth:`grade3.errors.Grade3Error._malformed`: an :class:`InvalidLabel`
    when a field of ``label`` is not of its type, else an :class:`InvalidFormat`
    when one of ``fmt`` is not, else ``exc`` itself.  Each public function
    catches the error instead of testing the fields, so only a call that fails
    pays for the test.
    """
    if type(label.tag) is not str or type(label.a) is not int or type(label.b) is not int:
        return InvalidLabel._malformed(label, exc)
    if type(fmt.m) is not int or type(fmt.n) is not int:
        return InvalidFormat._malformed(fmt, exc)
    return exc
