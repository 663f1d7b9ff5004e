"""Exact coefficient fields: rationals and prime residue fields.

No floating point anywhere; scalars support +, -, * and compare by value.
A rational scalar is a plain ``int`` until a real fraction appears, and a
``Fraction`` from then on: the two mix exactly, compare and hash equal and
print the same. Rational scalars are never divided with ``/``; a fraction
is made only by ``QQ.of``. Field objects build scalars and are attached to
algebra elements to guard against mixing coefficients from different
fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class FieldError(Exception):
    pass


@dataclass(frozen=True)
class ModInt:
    value: int
    p: int

    def _check(self, other: "ModInt") -> None:
        if not isinstance(other, ModInt) or other.p != self.p:
            raise FieldError("mixed moduli in residue arithmetic")

    def __add__(self, other: "ModInt") -> "ModInt":
        self._check(other)
        return ModInt((self.value + other.value) % self.p, self.p)

    def __sub__(self, other: "ModInt") -> "ModInt":
        self._check(other)
        return ModInt((self.value - other.value) % self.p, self.p)

    def __mul__(self, other: "ModInt") -> "ModInt":
        self._check(other)
        return ModInt((self.value * other.value) % self.p, self.p)

    def __truediv__(self, other: "ModInt") -> "ModInt":
        self._check(other)
        if other.value % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        inv = pow(other.value, self.p - 2, self.p)
        return ModInt((self.value * inv) % self.p, self.p)

    def __neg__(self) -> "ModInt":
        return ModInt(-self.value % self.p, self.p)

    def __bool__(self) -> bool:
        return self.value % self.p != 0

    def __str__(self) -> str:
        return str(self.value % self.p)


Scalar = Union[int, Fraction, ModInt]


@dataclass(frozen=True)
class RationalField:
    name: str = "Q"
    zero = 0
    one = 1

    def of(self, num: int, den: int = 1) -> Union[int, Fraction]:
        return num if den == 1 else Fraction(num, den)


# Miller-Rabin: strong probable prime tests to the first twelve primes decide
# primality below psi_12 (Jiang and Deng, Math. Comp. 83 (2014), 2915-2924)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_MODULUS = 318665857834031151167460


def _is_prime(n: int) -> bool:
    if n <= _BASES[-1] or any(n % a == 0 for a in _BASES):
        return n in _BASES
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x != 1 and n - 1 not in [pow(x, 1 << i, n) for i in range(r)]:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if self.p > MAX_MODULUS:
            raise FieldError("modulus %d is above the bound %d" % (self.p, MAX_MODULUS))
        if not _is_prime(self.p):
            raise FieldError("modulus %d is not prime" % self.p)

    @property
    def name(self) -> str:
        return "F%d" % self.p

    def of(self, num: int, den: int = 1) -> ModInt:
        if den % self.p == 0:
            raise ZeroDivisionError("denominator divisible by %d" % self.p)
        inv = pow(den % self.p, self.p - 2, self.p)
        return ModInt((num * inv) % self.p, self.p)

    @property
    def zero(self) -> ModInt:
        return ModInt(0, self.p)

    @property
    def one(self) -> ModInt:
        return ModInt(1, self.p)


Field = Union[RationalField, PrimeField]

QQ = RationalField()


def parse_field(text: str) -> Field:
    """Parse a field name: Q, or F<p> for a prime p."""
    t = text.strip()
    if t in ("Q", "q"):
        return QQ
    if t and t[0] in ("F", "f") and t[1:].isdigit():
        return PrimeField(int(t[1:]))
    raise FieldError("unknown field %r (expected Q or F<prime>)" % text)
