"""Exact nonnegative rationals with a single point at infinity.

Every quantity in this package is either an arbitrary-size integer or an
exact rational; nothing is ever rounded.  Targets such as the comparison
radius may be infinite, so the CLI-facing value type is a nonnegative
``Fraction`` extended with ``inf``.  The accepted text forms are ``"p/q"``,
``"p"``, decimals such as ``"1.5"``, exponent forms such as ``"1e3"`` and
``"inf"``, with surrounding spaces; serialized rationals are ``{"num":
"...", "den": "..."}`` with decimal-string components, and serialized
integers are plain decimal strings, so documents survive readers with
bounded int types.

A document is re-verified by regenerating it from the inputs it declares
and comparing.  The writers take a leaf maker: ``str`` writes each
integer, and ``IntLeaf`` keeps it unwritten, to be compared with the
presented text, which is read once by the strict reader ``text_int``;
the inputs a document declares (depths, radii, h overrides) are read by
``text_int`` too, so a document has one integer grammar.
Tables and witnesses compare this way, since ``str`` of a 13 kbit integer
costs two to three times ``int`` of its digits; a diagram's or chern
table's thousands of small integers are written and compared as text by
``==``, which runs in C.  Failure text writes an integer by ``shown_int``,
which names one past the int->str digit limit by its bit length.

Every document the package writes (tables, witness certificates, chern
tables, diagrams) is made by one writer, ``document_text``, whose output
is byte-identical to ``json.dumps(obj, sort_keys=True, indent=2)``.  Before
CPython 3.13 that call runs the pure-Python encoder, one generator per
container, because the C encoder is used only without ``indent``; the
writer joins each container's items in one ``str.join`` instead, with
every string quoted by the same C function ``json.dumps`` uses.

>>> ExtendedRational.parse("3/4") < ExtendedRational.parse("inf")
True
>>> str(ExtendedRational.parse("6/8"))
'3/4'
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from json.encoder import encode_basestring_ascii
from typing import Any, Callable


def parse_fraction(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"p"``, a decimal such as ``"1.5"`` or an
    exponent form such as ``"1e3"``, with surrounding spaces, into a
    nonnegative ``Fraction``.

    ``Fraction`` reads digit underscores from CPython 3.11 on and spaces
    around the ``/`` from 3.12 on; both are refused here, so every
    interpreter from 3.10 on reads one grammar.

    >>> parse_fraction("9/10"), parse_fraction(" 1.5 "), parse_fraction("1e3")
    (Fraction(9, 10), Fraction(3, 2), Fraction(1000, 1))
    """
    body = text.strip()
    if "_" in body or any(ch.isspace() for ch in body):
        raise ValueError(f"not a rational: {shown_text(text)}")
    try:
        value = Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {shown_text(text)}") from exc
    if value < 0:
        raise ValueError(f"negative rational not allowed: {shown_text(text)}")
    return value


def quotient_sign(num: int, *dens: int) -> int | None:
    """The sign of num divided by the product of ``dens``, read off the
    signs alone (nothing is multiplied), or None when some den is 0.

    >>> quotient_sign(-3, 2, -5), quotient_sign(0, 7), quotient_sign(1, 0)
    (1, 0, None)
    """
    sign = (num > 0) - (num < 0)
    for den in dens:
        if not den:
            return None
        if den < 0:
            sign = -sign
    return sign


def cross_sign(a: int, b: int, c: int, e: int) -> int | None:
    """The sign of a/b - c/e by one cross-multiplication, with no gcd, or
    None when b or e is 0 (the quotient is undefined).

    The pairs need not be reduced, and their denominators may be negative.

    >>> cross_sign(2, 4, 1, 2), cross_sign(1, 3, 1, -2), cross_sign(1, 0, 1, 2)
    (0, 1, None)
    """
    return quotient_sign(a * e - c * b, b, e) if b and e else None


def quotient_text(num: int, den: int) -> str:
    """num/den as a reduced fraction, or num/0 where den is 0, each part
    written by ``shown_int``: failure text that never divides by zero and
    never raises.

    >>> quotient_text(6, -4), quotient_text(3, 0), quotient_text(4, 2)
    ('-3/2', '3/0', '2')
    """
    if not den:
        return f"{shown_int(num)}/0"
    value = Fraction(num, den)
    if value.denominator == 1:
        return shown_int(value.numerator)
    return f"{shown_int(value.numerator)}/{shown_int(value.denominator)}"


def text_int(text: Any) -> int:
    """The integer a decimal leaf spells, read strictly: ValueError unless
    ``text`` is a str in the one form a document spells an integer, ASCII
    digits with no leading zero as ``str`` writes an int >= 0, within the
    int->str digit limit.  ``int`` reads more: a sign, spaces, ``_``, other
    scripts' digits, and JSON numbers and booleans.

    >>> text_int("4096"), text_int("0")
    (4096, 0)
    """
    if not (type(text) is str and text.isascii() and text.isdigit()
            and (text[0] != "0" or len(text) == 1)):
        raise ValueError(f"not a decimal integer: {shown_text(text)}")
    return int(text)


# a failure detail shows a longer string by its head and its length
SHOWN_CHARACTERS = 80


def shown_text(text: Any) -> str:
    """``repr`` of a value for a failure detail, bounded: a string of
    more than ``SHOWN_CHARACTERS`` characters shows its first ones and its
    length, and any other value its repr as ``bounded`` shows it.

    >>> print(shown_text("120"), shown_text("7" * 5000)[76:])
    '120' 77777'... (5000 characters)
    >>> print(shown_text({"num": "1"}), shown_text([0] * 5000)[76:])
    {'num': '1'} 0, 0... (15000 characters)
    """
    if type(text) is not str:
        return bounded(repr(text))
    if len(text) <= SHOWN_CHARACTERS:
        return repr(text)
    return f"{text[:SHOWN_CHARACTERS]!r}... ({len(text)} characters)"


def bounded(text: str) -> str:
    """``text`` itself, or, past ``SHOWN_CHARACTERS`` characters, its first
    ones and its length."""
    if len(text) <= SHOWN_CHARACTERS:
        return text
    return f"{text[:SHOWN_CHARACTERS]}... ({len(text)} characters)"


def shown_int(value: int, show: Callable[[str], str] = str) -> str:
    """``show`` of ``str(value)``, or, for an integer past the int->str
    digit limit, which ``str`` refuses to write, its sign and bit length:
    failure text that never raises.

    >>> print(shown_int(-12), shown_int(12, shown_text))
    -12 '12'
    """
    try:
        return show(str(value))
    except ValueError:      # past the int->str digit limit
        return ("-" * (value < 0) + f"<{value.bit_length()}-bit integer "
                "past the int->str digit limit>")


class IntLeaf:
    """An integer of a regenerated document, left unwritten.  It matches
    the presented leaf that ``text_int`` reads to ``value``.  Its repr is
    ``shown_int``'s with the ``shown_text`` quotes, so a failed comparison's
    detail reads as if the document had been written.
    """

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def matches(self, text: Any) -> bool:
        try:
            return text_int(text) == self.value
        except ValueError:
            return False

    def __repr__(self) -> str:
        return shown_int(self.value, shown_text)


def fraction_to_json(value: Fraction, leaf: Callable[[int], Any] = str
                     ) -> dict[str, Any]:
    return {"num": leaf(value.numerator), "den": leaf(value.denominator)}


def fraction_from_json(obj: Any) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise ValueError(f"malformed rational object: {shown_text(obj)}")
    num, den = text_int(obj["num"]), text_int(obj["den"])
    if not den:
        raise ValueError(f"malformed rational object: {shown_text(obj)}")
    value = Fraction(num, den)
    if (value.numerator, value.denominator) != (num, den):
        raise ValueError(f"rational not in lowest terms: {shown_text(obj)}")
    return value


def document_text(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    >>> print(document_text({"b": [], "a": [None, "x"]}))
    {
      "a": [
        null,
        "x"
      ],
      "b": []
    }
    """
    # CPython 3.13 encodes with indent in C, faster than the join; this
    # test retires when requires-python reaches 3.13.
    if sys.version_info >= (3, 13):
        return json.dumps(obj, sort_keys=True, indent=2)
    return _joined_text(obj, "\n")


def _joined_text(obj: Any, newline: str, memo: dict | None = None) -> str:
    """``obj`` as indented JSON whose lines start at ``newline``'s indent.

    String items are quoted in place, saving a call per leaf, and bools,
    None and ints are written as the encoder writes them, without calling
    it.  Keys must be strings: ``encode_basestring_ascii`` raises
    TypeError on any other.
    A list met a second time at the same indent is rendered once: ``memo``
    keeps each list's text under ``(id(list), newline)`` until its second
    use pops it (ids stay unique while ``obj`` holds the lists).
    """
    quote = encode_basestring_ascii
    if memo is None:
        memo = {}
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return ("{" + inner + ("," + inner).join(
            [quote(k) + ": " + (quote(v) if isinstance(v, str)
                                else _joined_text(v, inner, memo))
             for k, v in sorted(obj.items())]) + newline + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        key = (id(obj), newline)
        text = memo.pop(key, None)
        if text is None:
            inner = newline + "  "
            text = memo[key] = ("[" + inner + ("," + inner).join(
                [quote(v) if isinstance(v, str)
                 else _joined_text(v, inner, memo)
                 for v in obj]) + newline + "]")
        return text
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return int.__repr__(obj)
    return json.dumps(obj)


def ints_to_json(values, leaf: Callable[[int], Any] = str) -> list[Any]:
    return list(map(leaf, values))


def ints_from_json(values) -> tuple[int, ...]:
    return tuple(map(text_int, values))


@total_ordering
@dataclass(frozen=True)
class ExtendedRational:
    """A nonnegative rational or infinity, totally ordered.

    The wrapped value is ``None`` exactly when the quantity is infinite;
    ``finite_value`` refuses to unwrap an infinite instance, so arithmetic
    can never silently treat ``inf`` as a number.
    """

    _value: Fraction | None

    def __post_init__(self) -> None:
        if self._value is not None and self._value < 0:
            raise ValueError("ExtendedRational must be nonnegative")

    @classmethod
    def infinite(cls) -> "ExtendedRational":
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "ExtendedRational":
        if text.strip() == "inf":
            return cls.infinite()
        return cls(parse_fraction(text))

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def finite_value(self) -> Fraction:
        if self._value is None:
            raise ValueError("value is infinite")
        return self._value

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __lt__(self, other: "ExtendedRational") -> bool:
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def to_json(self) -> Any:
        return "inf" if self._value is None else fraction_to_json(self._value)

    @classmethod
    def from_json(cls, obj: Any) -> "ExtendedRational":
        if obj == "inf":
            return cls.infinite()
        return cls(fraction_from_json(obj))
