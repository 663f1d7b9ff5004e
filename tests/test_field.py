"""Coefficient fields: exact rationals and prime residue fields."""

import time
from fractions import Fraction

import pytest

from kpalg import FieldError, PrimeField, QQ, parse_field
from kpalg.field import MAX_MODULUS, _is_prime


def test_rationals_are_exact():
    assert QQ.of(1, 3) + QQ.of(1, 6) == Fraction(1, 2)
    assert QQ.of(2, 4) == QQ.of(1, 2)
    assert QQ.zero == Fraction(0) and QQ.one == Fraction(1)
    # an int until a real fraction appears
    assert type(QQ.of(3)) is int and type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.of(1, 2)) is Fraction
    assert QQ.name == "Q"


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    a, b = f5.of(3), f5.of(4)
    assert (a + b).value == 2
    assert (a * b).value == 2
    assert (a - b).value == 4
    assert (a / b).value == 2  # 3 * 4^{-1} = 3 * 4 = 12 = 2 mod 5
    assert (-f5.one).value == 4
    assert not f5.zero and f5.one


def test_prime_field_of_reduces_fractions():
    f7 = PrimeField(7)
    assert f7.of(1, 2).value == 4  # 2 * 4 = 8 = 1 mod 7
    assert f7.of(10).value == 3
    with pytest.raises(ZeroDivisionError):
        f7.of(1, 7)
    with pytest.raises(ZeroDivisionError):
        f7.one / f7.zero


def test_modulus_must_be_prime():
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(1)


def test_large_prime_modulus_is_decided_quickly():
    start = time.perf_counter()
    f = PrimeField(2**61 - 1)
    assert time.perf_counter() - start < 1
    assert (f.of(1, 3) * f.of(3)).value == 1


@pytest.mark.parametrize(
    "p",
    [
        3215031751,  # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # a strong pseudoprime to the primes up to 23
        MAX_MODULUS + 1,
        2**89 - 1,  # prime, but above the bound
    ],
)
def test_composite_and_undecided_moduli_refused(p):
    with pytest.raises(FieldError):
        PrimeField(p)


def test_primality_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in list(range(3000)) + [2**31 - 1, 2**31 + 1, 1000003, 999999999989]:
        assert _is_prime(n) == trial(n), n


def test_mixed_moduli_rejected():
    with pytest.raises(FieldError):
        PrimeField(3).one + PrimeField(5).one


def test_parse_field_names():
    assert parse_field("Q") is QQ
    assert parse_field(" q ") is QQ
    assert parse_field("F5") == PrimeField(5)
    assert parse_field("f2") == PrimeField(2)
    with pytest.raises(FieldError):
        parse_field("R")
    for name in ("F6", "F1", "F%d" % (MAX_MODULUS + 2)):
        with pytest.raises(FieldError):
            parse_field(name)
