"""Exact rational parsing and formatting, and the base of the result records.

Every probability, value, allocation, and welfare figure in this package is
a ``fractions.Fraction``. Decimal input is rejected on purpose: exactness
requires integer or ``p/q`` forms, and base-10 rounding must never leak
into a computation path. Input is read once into reduced integer pairs
(:func:`parse_pair`), long sums run on :func:`integer_form` and reports
are written by :func:`format_pair`. :class:`Record`, the base of every
result, and :class:`TooLarge` are here because every module imports this.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

__all__ = ["Record", "TooLarge", "RationalParseError", "parse_pair", "parse_rational",
           "format_pair", "format_rational", "integer_form", "pair_form", "lowest_terms"]

_ALLOWED_CHARS = set("0123456789+-/ ")


class Record:
    """Base of the result records: ``__init__`` sets the ``__slots__``
    fields, each given by position or by name, and raises ``TypeError``
    naming the class unless every field is given exactly once. The repr is
    ``Name(field=value, ...)`` over ``__slots__`` in order, each value by
    ``str``, leaving out fields that hold a list, tuple or dict."""

    __slots__ = ()

    def __init__(self, *args, **named):
        fields = self.__slots__
        given = dict(zip(fields, args))
        if len(args) > len(fields) or given.keys() & named or {*given, *named} != {*fields}:
            raise TypeError(
                f"{type(self).__name__} takes the fields ({', '.join(fields)}), "
                f"got {len(args)} by position and {sorted(named)} by name"
            )
        for name, value in {**given, **named}.items():
            setattr(self, name, value)

    def __repr__(self):
        shown = [f"{name}={value}" for name in self.__slots__ for value in (getattr(self, name),)
                 if not isinstance(value, (list, tuple, dict))]
        return f"{type(self).__name__}({', '.join(shown)})"


class TooLarge(ValueError):
    """An enumeration or a number past a size limit."""


class RationalParseError(ValueError):
    """A token could not be read as an exact rational."""


def parse_pair(token) -> tuple[int, int]:
    """Parse an integer, a ``"p"`` / ``"p/q"`` string or a Fraction into the
    reduced integer pair ``(num, den)``, ``den > 0``; floats and decimal
    strings are rejected. A string, the form of JSON tokens, is tested first:
    ``isinstance(token, Fraction)`` runs ``ABCMeta.__instancecheck__``."""
    if isinstance(token, str):
        text = token.strip()
        if not text or not set(text) <= _ALLOWED_CHARS:
            raise RationalParseError(f"not an exact rational: {token!r}")
        try:
            num, den = map(int, text.split("/")) if "/" in text else (int(text), 1)
        except ValueError as exc:
            raise RationalParseError(f"not an exact rational: {token!r}") from exc
        if den == 0:
            raise RationalParseError(f"not an exact rational: {token!r}")
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        return num // g, den // g
    if isinstance(token, Fraction):
        return token.numerator, token.denominator
    if isinstance(token, int) and not isinstance(token, bool):
        return token, 1
    if isinstance(token, float):
        raise RationalParseError(f"decimal input rejected, use p/q strings: {token!r}")
    raise RationalParseError(f"not an exact rational: {token!r}")


def parse_rational(token) -> Fraction:
    """:func:`parse_pair` as a Fraction; a Fraction passes through."""
    return token if isinstance(token, Fraction) else Fraction(*parse_pair(token))


def format_pair(num: int, den: int) -> str:
    """``num / den``, ``den > 0``, as ``"p"`` or ``"p/q"`` in lowest terms; past
    the interpreter's digit limit for integer strings, :class:`TooLarge`."""
    g = math.gcd(num, den)
    try:
        return str(num // g) if den == g else f"{num // g}/{den // g}"
    except ValueError:  # str of an int raises it only past the interpreter's digit limit
        import sys
        raise TooLarge(f"too large: an exact result has more than {sys.get_int_max_str_digits()} "
                       "digits, the limit of Python's integer string conversion") from None


def format_rational(value: Fraction) -> str:
    """:func:`format_pair` of a Fraction or an int."""
    return format_pair(value.numerator, value.denominator)


def integer_form(values) -> tuple[list[int], int]:
    """Rationals as ``(numerators, den)`` over their least common
    denominator. (``lcm(*dens)`` would build a row-long tuple: CPython 3.11
    keeps up to 0.4 MiB of freed 20-tuples it never reuses. Hot tuples are
    built from lists, since a tuple built from an iterator is resized.)"""
    den = functools.reduce(math.lcm, [v.denominator for v in values], 1)
    return [v.numerator * (den // v.denominator) for v in values], den


def pair_form(pairs) -> tuple[list[int], int]:
    """:func:`integer_form` of rationals given as reduced ``(num, den)`` pairs."""
    den = functools.reduce(math.lcm, [d for _, d in pairs], 1)
    return [a * (den // d) for a, d in pairs], den


def lowest_terms(num: list[int], den: int) -> tuple[list[int], int]:
    """``(num, den)`` with the gcd of ``den`` and every numerator divided
    out: the :func:`integer_form` of the rationals ``num[j] / den``."""
    g = math.gcd(den, *num)
    return ([v // g for v in num], den // g) if g > 1 else (num, den)
