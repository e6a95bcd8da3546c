import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from llvlat.errors import DomainError, ParseError
from llvlat.rational import (
    fmt_q,
    is_square_int,
    nth_root_rational,
    parse_q,
    sqrt_rational,
)


def test_fmt_parse_roundtrip_examples():
    assert fmt_q(Q(5, 2)) == "5/2"
    assert fmt_q(Q(-3, 4)) == "-3/4"
    assert fmt_q(Q(7)) == "7"
    assert parse_q("5/2") == Q(5, 2)
    assert parse_q(" -3 ") == -3
    with pytest.raises(ParseError):
        parse_q("1.5e3x")
    with pytest.raises(ParseError):
        parse_q("1/0")


def test_fmt_q_refuses_results_beyond_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = 10 ** limit  # limit + 1 digits
    assert fmt_q(Q(big - 1)) == "9" * limit
    for x in (Q(big), Q(-big, 7), Q(1, big), Q(3, big + 1)):
        with pytest.raises(DomainError, match=f"more than {limit} digits"):
            fmt_q(x)


def test_parse_q_refuses_numbers_beyond_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert parse_q("9" * limit) == 10**limit - 1
    assert parse_q(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_q(f"-3/1{'0' * (limit - 1)}") == Q(-3, 10 ** (limit - 1))
    assert parse_q(f"1.{'5' * (limit - 1)}") == \
        Q(int("1" + "5" * (limit - 1)), 10 ** (limit - 1))
    # refused from the text or the value, before a large power is built
    for text in ("1" * (limit + 1), "1_0" * limit, "1e3000000", "2E-3000000",
                 f"1e{limit}", f"1/{'3' * (limit + 1)}", f"0.{'0' * limit}1",
                 f"{'1' * limit}.{'2' * limit}", "1e1_000_000"):
        with pytest.raises(DomainError, match=f"more than {limit} digits"):
            parse_q(text)
    for text in ("1_0e", "e5", "1/2e3", "1e3x"):
        with pytest.raises(ParseError):
            parse_q(text)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_fmt_parse_roundtrip(p, q):
    x = Q(p, q)
    assert parse_q(fmt_q(x)) == x


def test_square_tests():
    assert is_square_int(0) and is_square_int(1) and is_square_int(828 * 828)
    assert not is_square_int(-4) and not is_square_int(2)
    assert sqrt_rational(Q(529, 9)) == Q(23, 3)
    assert sqrt_rational(Q(2)) is None
    assert sqrt_rational(Q(-1)) is None
    big = (3**40 * 7**22)
    assert sqrt_rational(Q(big * big, 25)) == Q(big, 5)


@given(st.integers(0, 10**18))
def test_is_square_consistent(n):
    from math import isqrt
    assert is_square_int(n * n)
    if n > 1:
        assert not is_square_int(n * n + 1) or isqrt(n * n + 1) ** 2 == n * n + 1


def test_nth_roots():
    assert nth_root_rational(Q(27, 8), 3) == Q(3, 2)
    assert nth_root_rational(Q(-27, 8), 3) == Q(-3, 2)
    assert nth_root_rational(Q(-4), 2) is None
    assert nth_root_rational(Q(2401, 256), 4) == Q(7, 4)
    assert nth_root_rational(Q(5), 3) is None
    assert nth_root_rational(Q(0), 5) == 0
    with pytest.raises(ValueError):
        nth_root_rational(Q(1), 0)


@given(st.integers(-50, 50), st.integers(1, 20), st.integers(1, 5))
def test_nth_root_roundtrip(p, q, k):
    x = Q(p, q)
    power = x**k
    root = nth_root_rational(power, k)
    if k % 2 == 1:
        assert root == x
    else:
        assert root == abs(x)
