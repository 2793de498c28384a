"""Resolution formats and Tor-algebra class labels.

A *format* ``(m, n)`` records the ranks of the first and third free modules
in a length-3 free resolution; the middle module then has rank ``m + n - 1``
and the total Betti number is ``2(m + n)``.

A *class label* names the multiplicative structure of the associated
Tor algebra: ``B``, ``C(3)``, ``T``, ``G(r)`` with ``r >= 2``, or ``H(p, q)``
with ``p, q >= 0``.  Labels are immutable values with total ordering, text
round-tripping, and a fixed table of multiplication invariants ``(p, q, r)``.

The constructors and parsers return one shared object per distinct value:
equal formats, and equal labels, are the same object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

from .errors import InvalidFormat, InvalidLabel

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
    "OpaqueLabel",
    "OPAQUE",
]


@dataclass(frozen=True, order=True)
class Format:
    """Ranks ``(m, n)`` of the outer modules of a length-3 resolution."""

    m: int
    n: int

    @property
    def dim2(self) -> int:
        """Rank of the middle module, ``m + n - 1``."""
        return self.m + self.n - 1

    def __str__(self) -> str:
        return f"({self.m},{self.n})"


# One shared object per value.  Called only with validated plain ints: a bool would hash like 0 or 1,
# an unhashable argument would raise TypeError and an int subclass would be handed to later plain calls.
_shared_format = lru_cache(maxsize=None)(Format)


def make_format(m: int, n: int) -> Format:
    """Validated constructor: both coordinates must be positive integers."""
    if type(m) is int and type(n) is int and m >= 1 and n >= 1:  # the usual call, checked at once
        return _shared_format(m, n)
    for name, value in (("m", m), ("n", n)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidFormat(f"format coordinate {name} must be an integer, got {value!r}")
        if value < 1:
            raise InvalidFormat(f"format coordinate {name} must be >= 1, got {value}")
    return _shared_format(int(m), int(n))


_FORMAT_RE = re.compile(r"^\((\d+),(\d+)\)$")


def parse_format(text: str) -> Format:
    """Parse the text form ``"(m,n)"`` produced by ``str(Format)``."""
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
    return 2 * (fmt.m + fmt.n)


@dataclass(frozen=True, order=True)
class ClassLabel:
    """One of the labels B, C(3), T, G(r), H(p,q).

    ``tag`` is one of ``"B"``, ``"C3"``, ``"G"``, ``"H"``, ``"T"``; the two
    integer slots hold ``r`` for G and ``(p, q)`` for H and are zero
    otherwise.  Use the module-level constructors rather than instantiating
    directly: ``class_G`` and ``class_H`` validate and normalize parameters.
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
# Like _shared_format: one object per G or H label, built from validated ints.
_shared_label = lru_cache(maxsize=None)(ClassLabel)


def class_H(p: int, q: int) -> ClassLabel:
    """Label H(p, q); both parameters must be non-negative integers."""
    if type(p) is int and type(q) is int and p >= 0 and q >= 0:  # the usual call, checked at once
        return _shared_label("H", p, q)
    for name, value in (("p", p), ("q", q)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise InvalidLabel(f"H parameter {name} must be a non-negative integer, got {value!r}")
    return _shared_label("H", int(p), int(q))


def class_G(r: int) -> ClassLabel:
    """Label G(r).

    Requires ``r >= 0``; the degenerate multiplication patterns G(0) and G(1)
    coincide with H(0,0) and H(0,1) and are normalized to those labels, so a
    G label always has ``r >= 2``.
    """
    if not isinstance(r, int) or isinstance(r, bool) or r < 0:
        raise InvalidLabel(f"G parameter r must be a non-negative integer, got {r!r}")
    if r == 0:
        return class_H(0, 0)
    if r == 1:
        return class_H(0, 1)
    return _shared_label("G", int(r))


_LABEL_RE = re.compile(r"^(?:(B|T)|C\((3)\)|G\((\d+)\)|H\((\d+),(\d+)\))$")


def parse_label(text: str) -> ClassLabel:
    """Parse the text form produced by ``str(ClassLabel)``.

    Accepts ``"B"``, ``"T"``, ``"C(3)"``, ``"G(r)"``, ``"H(p,q)"`` and applies
    the same normalization as the constructors (so ``"G(1)"`` parses to
    ``H(0,1)``).
    """
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


@dataclass(frozen=True)
class ClassInvariants:
    """Multiplication invariants (p, q, r) attached to a class label.

    ``p = dim A1*A1``, ``q = dim A1*A2``, and ``r`` is the rank of the map
    ``A2 -> Hom(A1, A3)`` induced by multiplication.
    """

    p: int
    q: int
    r: int


def class_invariants(label: ClassLabel) -> ClassInvariants:
    """The fixed (p, q, r) triple each class realizes."""
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


@dataclass(frozen=True, order=True)
class OpaqueLabel:
    """Placeholder for an axiom whose class is not pinned by its source.

    Renders as ``"*"`` in certificate documents, which is also its ``tag``;
    like a class label's, its slots ``a`` and ``b`` are integers, both zero.
    Only the rule that works for every class (``linktoT``) accepts it.
    """

    tag: ClassVar[str] = "*"
    a: ClassVar[int] = 0
    b: ClassVar[int] = 0

    def __str__(self) -> str:
        return "*"


OPAQUE = OpaqueLabel()
