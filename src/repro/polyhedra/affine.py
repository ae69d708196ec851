"""Affine expressions over named dimensions.

An :class:`AffineExpr` is ``sum(c_i * x_i) + c0`` with exact rational
coefficients.  It supports the small algebra needed by domains, access
functions and schedules: addition, subtraction, scaling, renaming,
substitution and evaluation.

The expression is *stored* as integers: a numerator constant, the
``((name, coefficient), ...)`` numerator terms in insertion order, and one
positive denominator, reduced so that the greatest common divisor of the
denominator and every numerator is 1 (:attr:`AffineExpr.integer_form`).  That
form is unique, so equality and hashing compare integers, and the algebra
works on integers only.
:attr:`~AffineExpr.coefficients` and :attr:`~AffineExpr.constant` are
read-only :class:`~fractions.Fraction` views built on request.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from ..linalg.rational import Rational, as_fraction, lcm
from .space import CONSTANT_KEY

__all__ = ["AffineExpr"]

IntegerTerms = tuple[tuple[str, int], ...]


class AffineExpr:
    """An affine expression ``sum_i c_i * x_i + c0`` over named dimensions.

    Immutable by convention: every operation returns a new expression.  The
    coefficient order (insertion order, as in the mapping it was built from)
    is kept, because it decides the column order of the constraint systems
    built from the expression.
    """

    __slots__ = ("_constant", "_terms", "_denominator")

    def __init__(
        self, coefficients: Mapping[str, Rational] | None = None, constant: Rational = 0
    ) -> None:
        denominator = 1
        values: list[tuple[str, Rational]] = []
        for name, value in (coefficients or {}).items():
            if type(value) is not int:
                value = as_fraction(value)
                if value.denominator != 1:
                    denominator = lcm(denominator, value.denominator)
            if value:
                values.append((name, value))
        if type(constant) is not int:
            constant = as_fraction(constant)
            if constant.denominator != 1:
                denominator = lcm(denominator, constant.denominator)
        if denominator == 1:
            self._terms = tuple((name, int(value)) for name, value in values)
            self._constant = int(constant)
        else:
            self._terms = tuple(
                (name, int(value * denominator)) for name, value in values
            )
            self._constant = int(constant * denominator)
        self._denominator = denominator

    @classmethod
    def _make(cls, constant: int, terms: IntegerTerms, denominator: int) -> "AffineExpr":
        """Trusted constructor: *terms* non-zero, ``denominator > 0``, reduced."""
        expression = object.__new__(cls)
        expression._constant = constant
        expression._terms = terms
        expression._denominator = denominator
        return expression

    @classmethod
    def _reduced(
        cls, constant: int, terms: Iterable[tuple[str, int]], denominator: int
    ) -> "AffineExpr":
        """Canonicalise non-zero numerator *terms* over a positive denominator."""
        terms = tuple(terms)
        if denominator != 1:
            divisor = gcd(denominator, constant)
            for _, value in terms:
                if divisor == 1:
                    break
                divisor = gcd(divisor, value)
            if divisor > 1:
                terms = tuple((name, value // divisor) for name, value in terms)
                constant //= divisor
                denominator //= divisor
        return cls._make(constant, terms, denominator)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def variable(cls, name: str) -> "AffineExpr":
        """The expression consisting of a single dimension with coefficient 1."""
        return cls._make(0, ((name, 1),), 1)

    @classmethod
    def const(cls, value: Rational) -> "AffineExpr":
        """A constant expression."""
        if type(value) is int:
            return cls._make(value, (), 1)
        value = as_fraction(value)
        return cls._make(value.numerator, (), value.denominator)

    @classmethod
    def from_terms(cls, terms: Mapping[str, Rational], constant: Rational = 0) -> "AffineExpr":
        """Build from a ``{name: coefficient}`` mapping plus a constant."""
        return cls(terms, constant)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def integer_form(self) -> tuple[int, IntegerTerms, int]:
        """The stored ``(constant, ((name, coefficient), ...), denominator)``.

        Integer entries with ``denominator > 0``, such that the expression
        equals ``(constant + sum(coefficient * name)) / denominator``.
        Because the denominator is positive, the sign of the numerator is the
        sign of the expression, and ``ceil``/``floor`` are exact integer
        floor divisions.
        """
        return self._constant, self._terms, self._denominator

    @property
    def coefficients(self) -> dict[str, Fraction]:
        """A fresh ``{name: coefficient}`` view (non-zero entries, stored order)."""
        denominator = self._denominator
        if denominator == 1:
            return {name: Fraction(value) for name, value in self._terms}
        return {name: Fraction(value, denominator) for name, value in self._terms}

    @property
    def constant(self) -> Fraction:
        return Fraction(self._constant, self._denominator)

    def coefficient(self, name: str) -> Fraction:
        """Coefficient of dimension *name* (0 when absent)."""
        for term, value in self._terms:
            if term == name:
                return Fraction(value, self._denominator)
        return Fraction(0)

    def variables(self) -> set[str]:
        """Dimension names with non-zero coefficients."""
        return {name for name, _ in self._terms}

    def is_constant(self) -> bool:
        return not self._terms

    def is_zero(self) -> bool:
        return not self._terms and self._constant == 0

    def as_dict(self) -> dict[str, Fraction]:
        """Coefficients plus the constant under :data:`CONSTANT_KEY`."""
        result = self.coefficients
        if self._constant != 0:
            result[CONSTANT_KEY] = self.constant
        return result

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def __add__(self, other: "AffineExpr | Rational") -> "AffineExpr":
        return self._combine(_coerce(other), 1)

    def __radd__(self, other: Rational) -> "AffineExpr":
        return self.__add__(other)

    def __neg__(self) -> "AffineExpr":
        return AffineExpr._make(
            -self._constant,
            tuple((name, -value) for name, value in self._terms),
            self._denominator,
        )

    def __sub__(self, other: "AffineExpr | Rational") -> "AffineExpr":
        return self._combine(_coerce(other), -1)

    def __rsub__(self, other: Rational) -> "AffineExpr":
        return (-self) + other

    def _combine(self, other: "AffineExpr", sign: int) -> "AffineExpr":
        """``self + sign * other`` (``sign`` is 1 or -1)."""
        d1 = self._denominator
        d2 = other._denominator
        if d1 == d2:
            denominator = d1
            scale1 = 1
            scale2 = sign
        else:
            common = gcd(d1, d2)
            denominator = d1 // common * d2
            scale1 = d2 // common
            scale2 = sign * (d1 // common)
        if scale1 == 1:
            terms = dict(self._terms)
        else:
            terms = {name: value * scale1 for name, value in self._terms}
        for name, value in other._terms:
            total = terms.get(name, 0) + value * scale2
            if total:
                terms[name] = total
            else:
                del terms[name]
        constant = self._constant * scale1 + other._constant * scale2
        return AffineExpr._reduced(constant, terms.items(), denominator)

    def __mul__(self, factor: Rational) -> "AffineExpr":
        if type(factor) is int:
            numerator, denominator = factor, 1
        else:
            factor = as_fraction(factor)
            numerator, denominator = factor.numerator, factor.denominator
        if numerator == 0:
            return AffineExpr._make(0, (), 1)
        return AffineExpr._reduced(
            self._constant * numerator,
            ((name, value * numerator) for name, value in self._terms),
            self._denominator * denominator,
        )

    def __rmul__(self, factor: Rational) -> "AffineExpr":
        return self.__mul__(factor)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineExpr):
            return NotImplemented
        if self._constant != other._constant or self._denominator != other._denominator:
            return False
        if self._terms == other._terms:
            return True
        # Equal expressions may list their terms in different orders.
        return len(self._terms) == len(other._terms) and dict(self._terms) == dict(
            other._terms
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._terms), self._constant, self._denominator))

    def __reduce__(self):
        return (AffineExpr._make, (self._constant, self._terms, self._denominator))

    def __repr__(self) -> str:
        return f"AffineExpr(coefficients={self.coefficients!r}, constant={self.constant!r})"

    # ------------------------------------------------------------------ #
    # Substitution / evaluation
    # ------------------------------------------------------------------ #
    def substitute(self, bindings: Mapping[str, "AffineExpr | Rational"]) -> "AffineExpr":
        """Replace dimensions by affine expressions (or constants).

        Terms are accumulated in the expression's own order; a dimension
        whose accumulated coefficient cancels to zero is dropped and, if a
        later binding brings it back, re-enters at the end.
        """
        replacements = [
            (name, value, _coerce(bindings[name]) if name in bindings else None)
            for name, value in self._terms
        ]
        # Common denominator of every binding used: the numerator of the
        # result is accumulated over ``self.denominator * common``.
        common = 1
        for _, _, binding in replacements:
            if binding is not None and binding._denominator != 1:
                common = lcm(common, binding._denominator)
        terms: dict[str, int] = {}
        constant = self._constant * common
        for name, value, binding in replacements:
            if binding is None:
                contributions: Iterable[tuple[str, int]] = ((name, value * common),)
            else:
                scale = value * (common // binding._denominator)
                constant += binding._constant * scale
                contributions = (
                    (bound, coefficient * scale) for bound, coefficient in binding._terms
                )
            for key, amount in contributions:
                total = terms.get(key, 0) + amount
                if total:
                    terms[key] = total
                else:
                    del terms[key]
        return AffineExpr._reduced(constant, terms.items(), self._denominator * common)

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename dimensions according to *mapping* (missing names unchanged).

        When two dimensions are renamed onto one name the later coefficient
        wins, as in a dictionary built from the renamed pairs.
        """
        renamed = {mapping.get(name, name): value for name, value in self._terms}
        if len(renamed) == len(self._terms):
            return AffineExpr._make(
                self._constant, tuple(renamed.items()), self._denominator
            )
        return AffineExpr._reduced(self._constant, renamed.items(), self._denominator)

    def evaluate(self, values: Mapping[str, Rational]) -> Fraction:
        """Numeric value of the expression for a full assignment of its dimensions."""
        total = self._constant
        for name, coefficient in self._terms:
            if name not in values:
                raise KeyError(f"no value provided for dimension {name!r}")
            value = values[name]
            if type(value) is not int:
                value = as_fraction(value)
            total += coefficient * value
        if type(total) is int:
            return Fraction(total, self._denominator)
        return total / self._denominator

    def __str__(self) -> str:
        parts: list[str] = []
        coefficients = self.coefficients
        for name in sorted(coefficients):
            coeff = coefficients[name]
            if coeff == 1:
                parts.append(f"{name}")
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        if self._constant != 0 or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(value: "AffineExpr | Rational") -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    return AffineExpr.const(value)
