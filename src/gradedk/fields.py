"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are `fractions.Fraction` over the rationals and ints in ``[0, p)``
over GF(p); no floating point is used anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (char 0) or a prime field GF(p)."""

    char: int

    def __post_init__(self):
        if self.char:
            if not _is_prime(self.char):
                raise ValueError(f"field characteristic {self.char} is not prime")
            if self.char >= 2**31:
                raise ValueError("prime fields are limited to p < 2**31")

    # -- scalar constructors -------------------------------------------------
    @property
    def zero(self):
        return 0 if self.char else Fraction(0)

    @property
    def one(self):
        return 1 if self.char else Fraction(1)

    def of_int(self, n: int):
        return n % self.char if self.char else Fraction(n)

    def of_fraction(self, num: int, den: int = 1):
        if self.char:
            p = self.char
            if den % p == 0:
                raise ZeroDivisionError(f"denominator {den} not invertible mod {p}")
            return (num * pow(den, p - 2, p)) % p
        return Fraction(num, den)

    # -- arithmetic ----------------------------------------------------------
    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def sub(self, a, b):
        return (a - b) % self.char if self.char else a - b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.char:
            return pow(a, self.char - 2, self.char)
        return Fraction(1) / a

    # -- formatting ----------------------------------------------------------
    def describe(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"

    def __str__(self) -> str:
        return self.describe()


QQ = Field(0)


def GF(p: int) -> Field:
    if not p:
        # Field(0) is the rationals, which GF(0) must not silently become
        raise ValueError("field characteristic 0 is not prime")
    return Field(p)


def parse_field(text: str) -> Field:
    """Parse a field spec: "q", "Q", "fp:5", "F5"."""
    t = text.strip()
    low = t.lower()
    if low in ("q", "qq", "rationals"):
        return QQ
    if low.startswith("fp:"):
        p = int(low[3:])
    elif (low.startswith("f") or low.startswith("gf")) and low.lstrip("gf").isdigit():
        p = int(low.lstrip("gf"))
    else:
        raise ValueError(f"unknown field spec {text!r} (use q or fp:<p>)")
    if not p:
        raise ValueError(f"field spec {text!r} has characteristic 0 (use q for the rationals)")
    return GF(p)
