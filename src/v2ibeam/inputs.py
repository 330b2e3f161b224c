"""The rules every JSON input follows: scenarios and codebook files.

A _Section reads one object: take() pops a key and passes its value through a
kind, which converts it or raises a TypeError saying what the key takes, and
done() rejects every key left. Messages name the document and the key. A bool
is never a number, and a number must be finite unless its kind says otherwise.
The config objects check their fields through the same kinds (_checked), so a
config built in code holds only what a scenario file can.
A number written as a string (a codebook float, a results-CSV cell) must be
spelt as repr() spells its value: not '+1', ' 1', '1_0', '1E2' or '1.50'.
"""

from __future__ import annotations

import math
import numbers

_ABSENT = object()


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A real number, not a bool, that is finite as a float."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


def _from_repr(parse, text: str):
    """parse(text), provided text is how repr() spells that value."""
    value = parse(text)
    if repr(value) != text:
        raise ValueError(f"{text!r} is not spelt as repr() spells {value!r}")
    return value


def _kind(what: str, accepts, convert=lambda value: value):
    """A kind of value: convert(value) for a value it accepts, else a
    TypeError that says what the key takes."""

    def read(value):
        if not accepts(value):
            raise TypeError(f"must be {what}")
        return convert(value)

    return read


_count = _kind("a non-negative integer", lambda value: _is_integer(value) and value >= 0, int)
_positive_integer = _kind("a positive integer",
                          lambda value: _is_integer(value) and value > 0, int)
_number = _kind("a finite number", _is_number, float)
_decibels = _kind("a finite number, Infinity or -Infinity",
                  lambda value: _is_number(value) or value in (math.inf, -math.inf), float)
_nonnegative = _kind("a finite non-negative number",
                     lambda value: _is_number(value) and value >= 0, float)
_positive = _kind("a finite positive number",
                  lambda value: _is_number(value) and value > 0, float)
_boolean = _kind("true or false", lambda value: isinstance(value, bool))
_string = _kind("a string", lambda value: isinstance(value, str))
_list = _kind("a list", lambda value: isinstance(value, list))
_codewords = _kind("a non-empty list of even integers >= 2",
                   lambda value: isinstance(value, list) and len(value) > 0
                   and all(_is_integer(q) and q >= 2 and q % 2 == 0 for q in value),
                   tuple)
_angle = _kind("a finite number in [-pi/2, pi/2]",
               lambda value: _is_number(value) and abs(value) <= math.pi / 2, float)
_range = _kind("a [lower, upper] pair of finite numbers with lower < upper",
               lambda value: isinstance(value, list) and len(value) == 2
               and all(map(_is_number, value)) and value[0] < value[1],
               lambda value: tuple(map(float, value)))
_powers = _kind("a finite number or a non-empty list of finite numbers",
                lambda value: _is_number(value) or (isinstance(value, list) and len(value) > 0
                                                    and all(map(_is_number, value))),
                lambda value: tuple(map(float, value if isinstance(value, list) else [value])))


def _integer_up_to(limit: int):
    """The kind of an integer in 1..limit, such as N RF chains of M antennas."""
    return _kind(f"an integer in 1..{limit}",
                 lambda value: _is_integer(value) and 1 <= value <= limit, int)


def _one_of(options: tuple[str, ...]):
    """The kind of one of the listed names."""
    return _kind(f"one of {', '.join(map(repr, options))}", lambda value: value in options)


def _checked(document: str, key: str, value, kind):
    """kind(value), or a ValueError that names the document, key and value."""
    try:
        return kind(value)
    except TypeError as exc:
        raise ValueError(f"{document} key {key!r} = {value!r}: {exc}") from None


def _decimal(value) -> float:
    """A codebook number: a finite number, or the string repr() gives one."""
    try:
        number = _from_repr(float, value) if isinstance(value, str) else _number(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise TypeError("must be a finite number or the repr() string of one")
    return number


class _Section:
    """One object of a document ("scenario", "codebook <path>"), consumed key
    by key; `where` places it ("top level", "section 'beam'") in messages."""

    def __init__(self, part, document: str, where: str):
        if not isinstance(part, dict):
            raise ValueError(f"{document} {where} must be an object")
        self.left = dict(part)
        self.document = document
        self.where = where

    def take(self, key: str, kind, default=_ABSENT, nullable: bool = False):
        """kind(value) of the key; default when the key is absent, or null and
        nullable. A value kind rejects is a ValueError that names the key."""
        value = self.left.pop(key, _ABSENT)
        if value is _ABSENT or (nullable and value is None):
            if default is _ABSENT:
                raise ValueError(f"{self.document} key {key!r} is required")
            return default
        return _checked(self.document, key, value, kind)

    def section(self, key: str, required: bool = False) -> _Section:
        part = self.take(key, lambda value: value, _ABSENT if required else {})
        return _Section(part, self.document, f"section {key!r}")

    def done(self) -> None:
        if self.left:
            raise ValueError(
                f"unknown {self.document} keys at {self.where}: {', '.join(sorted(self.left))}"
            )
