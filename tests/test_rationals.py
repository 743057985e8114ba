import re
from fractions import Fraction

import pytest

from anonvote.rationals import (RationalParseError, format_pair, format_rational, parse_pair,
                                parse_rational)


def test_parse_accepts_integers_strings_and_fractions():
    assert parse_rational(7) == Fraction(7)
    assert parse_rational(-3) == Fraction(-3)
    assert parse_rational("499/1000") == Fraction(499, 1000)
    assert parse_rational("-100") == Fraction(-100)
    assert parse_rational(" 2/4 ") == Fraction(1, 2)
    assert parse_rational(Fraction(5, 3)) == Fraction(5, 3)


@pytest.mark.parametrize(
    "bad", ["1.5", "1e3", "", "abc", "1/0", "1/2/3", 0.5, True, None, [1]]
)
def test_parse_rejects_inexact_or_malformed(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        (0.5, "decimal input rejected, use p/q strings: 0.5"),
        (True, "not an exact rational: True"),
        (None, "not an exact rational: None"),
        ([1], "not an exact rational: [1]"),
        ("1.5", "not an exact rational: '1.5'"),
    ],
)
def test_parse_pair_names_the_refused_token(bad, message):
    # a string is tested first; every other token is refused as before
    with pytest.raises(RationalParseError, match=f"^{re.escape(message)}$"):
        parse_pair(bad)


def test_parse_pair_reduces_each_token_kind():
    class Token(str):
        pass

    assert parse_pair(" -6/4 ") == parse_pair(Token("3/-2")) == (-3, 2)
    assert parse_pair(Fraction(6, 4)) == (3, 2)
    assert parse_pair(-7) == parse_pair("-7") == (-7, 1)


def test_format_round_trips_lowest_terms():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-499, 1000)) == "-499/1000"
    assert parse_rational(format_rational(Fraction(12, 8))) == Fraction(3, 2)
    # a pair need not be reduced: it is written as its Fraction would be
    for num, den in [(6, 4), (-8, 2), (0, 7), (35, 1), (-21, 35), (10**40, 3 * 10**39)]:
        assert format_pair(num, den) == str(Fraction(num, den))
