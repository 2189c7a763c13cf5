"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

All computations in the library are exact.  The default field is the
rationals (stdlib ``fractions.Fraction``, always stored in lowest terms with
positive denominator).  An optional prime-field mode exists for fast
property testing; it is never used for certified verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


class FieldError(ValueError):
    """Raised for invalid field specifications or mixed-field arithmetic."""


class ParseError(ValueError):
    """Malformed input text, with its line number when one is known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class ModP:
    """Residue in the prime field Z/pZ, normalized to 0 <= value < p."""

    p: int
    value: int

    def _coerce(self, other):
        if isinstance(other, ModP):
            if self.p != other.p:
                raise FieldError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return ModP(self.p, other % self.p)
        if isinstance(other, Fraction):
            raise FieldError(f"rational {other} met a residue mod {self.p}")
        return NotImplemented

    @property
    def denominator(self):  # read by the integer kernels over QQ, where a residue has no place
        raise FieldError(f"residue {self.value} mod {self.p} in a system over QQ")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModP(self.p, (self.value + other.value) % self.p)

    __radd__ = __add__

    def __neg__(self):
        return ModP(self.p, (-self.value) % self.p)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModP(self.p, (self.value - other.value) % self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModP(self.p, (self.value * other.value) % self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero residue")
        return ModP(self.p, (self.value * pow(other.value, -1, self.p)) % self.p)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        return ModP(self.p, pow(self.value, n, self.p))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RationalField:
    """The field of rationals (exact, arbitrary precision)."""

    name = "q"
    p = 0  # the characteristic
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, numerator, denominator=1):
        return Fraction(numerator, denominator)

    @staticmethod
    def contains(value) -> bool:
        """Whether the value is a scalar of this field (ints included)."""
        return isinstance(value, (int, Fraction))

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {text.strip()!r}") from None
        except ValueError:
            raise ParseError(f"bad number {text.strip()!r}") from None

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field with p elements, p prime."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"fp:{p}"
        self.zero = ModP(p, 0)
        self.one = ModP(p, 1)

    def of(self, numerator, denominator=1):
        """The residue of numerator / denominator (ints, or a rational or residue over 1)."""
        if isinstance(numerator, Fraction):
            numerator, denominator = numerator.numerator, numerator.denominator * denominator
        num = self.zero._coerce(numerator)
        return num if denominator == 1 else num / ModP(self.p, denominator % self.p)

    def contains(self, value) -> bool:
        """Whether the value is a scalar of this field (ints included)."""
        return isinstance(value, int) or (isinstance(value, ModP) and value.p == self.p)

    def parse(self, text: str) -> ModP:
        value = QQ.parse(text)
        if value.denominator % self.p == 0:
            raise ParseError(f"{text.strip()!r} has no value in GF({self.p}): its denominator is divisible by {self.p}")
        return self.of(value)

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_spec(spec: str):
    """Parse a field flag value: ``q`` for rationals, ``fp:<prime>`` for GF(p)."""
    spec = spec.strip().lower()
    if spec == "q":
        return QQ
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError as exc:
            raise FieldError(f"bad prime in field spec {spec!r}") from exc
        return PrimeField(p)
    raise FieldError(f"unknown field spec {spec!r} (expected 'q' or 'fp:<prime>')")
