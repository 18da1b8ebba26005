"""Exact Laurent polynomials in a formal half-integer-power variable.

Elements are finite sums  sum_n  c_n * X^(n/2)  where the exponent n runs
over integers (so the variable is really X^(1/2)).  Coefficients are integer;
a ``Fraction`` only where a caller supplies a non-integral rational.  The
refined DT invariants and the E_q coefficients are integers, so every
coefficient the exact layer produces lies in Z[X^(+-1/2)] and is stored as a
Python ``int``.  Mixed int/Fraction arithmetic and hashing are exact, so an
integral ``Fraction`` that such arithmetic yields equals its ``int``.

A product of two integer polynomials with at least ``KRONECKER_MIN_TERMS``
term products nnz(a) * nnz(b), neither a monomial, is formed as one
big-integer product (Kronecker substitution): the common exponent stride is
divided out, each operand is packed into one ``int`` with a fixed number of
bytes per coefficient, wide enough for every coefficient of the result, the
two are multiplied, and the result is unpacked.  A product with a monomial
operand, on either side, shifts and scales the other operand's terms in one
dict comprehension.  Any other product (a ``Fraction`` coefficient, the zero
polynomial, or fewer term products) is summed term by term in a dict.  All
give the same exact result.  ``sum_of_products`` adds a list of such
products into one dict, truncated at a cutoff.

The same type serves as the coefficient ring over q^(1/2) for the quantum
torus and as the value ring for the motivic invariants over L^(1/2); the two
variables are related by q^(1/2) = -L^(1/2).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

#: fewest term products nnz(a) * nnz(b) at which a product of two integer
#: polynomials is formed as one big-integer product (64, 128 and 256 time
#: alike on the exact layer's products; 16 is slower)
KRONECKER_MIN_TERMS = 64


def _as_exact(x: Scalar) -> Scalar:
    """Normalise an exact rational: ``int`` when integral, else ``Fraction``."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"coefficients must be exact rationals, got {type(x)!r}")


def _kronecker(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two integer polynomials by Kronecker substitution.

    With the common exponent stride divided out, each operand becomes a dense
    list of slots, and each slot a run of ``width`` bytes of one integer, so
    that the polynomial is evaluated at X = 2^(8 width).  One big-integer
    product then holds every coefficient of the result in its own slot: a
    coefficient is a sum of at most min(nnz) products, so it is smaller in
    magnitude than ``half`` = 2^(8 width - 1).  Each slot is stored offset by
    ``half`` so that it is never negative and no slot borrows from the next.
    """
    lo_a, lo_b = min(a), min(b)
    step = gcd(*(n - lo_a for n in a), *(n - lo_b for n in b))
    bits = (max(map(abs, a.values())).bit_length()
            + max(map(abs, b.values())).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) // 8
    half = 1 << (8 * width - 1)
    offset = half.to_bytes(width, "little")

    def pack(p: dict[int, int], lo: int) -> tuple[int, int]:
        slots = [offset] * ((max(p) - lo) // step + 1)
        for n, x in p.items():
            slots[(n - lo) // step] = (x + half).to_bytes(width, "little")
        size = len(slots)
        return (int.from_bytes(b"".join(slots), "little")
                - int.from_bytes(offset * size, "little")), size

    pa, na = pack(a, lo_a)
    pb, nb = pack(b, lo_b)
    size = na + nb - 1
    raw = (pa * pb + int.from_bytes(offset * size, "little")).to_bytes(
        size * width, "little")
    lo = lo_a + lo_b
    out = {}
    for k in range(size):
        x = int.from_bytes(raw[k * width:(k + 1) * width], "little") - half
        if x:
            out[lo + k * step] = x
    return out


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients (a
    ``Fraction`` only where a caller supplies a non-integral rational).

    Exponents are stored in half-units: key ``n`` carries the monomial
    X^(n/2).  Zero coefficients are never stored.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c = {}
        if coeffs:
            for n, a in coeffs.items():
                a = _as_exact(a)
                if a != 0:
                    c[int(n)] = a
        self._c = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, half_exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        """coeff * X^(half_exp/2)."""
        return cls({half_exp: coeff})

    @classmethod
    def from_scalar(cls, a: Scalar) -> "LaurentPoly":
        return cls({0: a})

    # -- inspection ----------------------------------------------------

    def items(self):
        return self._c.items()

    def is_zero(self) -> bool:
        return not self._c

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for n, a in other._c.items():
            s = c.get(n, 0) + a
            if s == 0:
                c.pop(n, None)
            else:
                c[n] = s
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {n: -a for n, a in self._c.items()}
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            a = _as_exact(other)
            if a == 0:
                return LaurentPoly()
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = {n: b * a for n, b in self._c.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = LaurentPoly.__new__(LaurentPoly)
        a, b = self._c, other._c
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            ((n1, a1),) = a.items()
            out._c = {n1 + n: a1 * x for n, x in b.items()}
            return out
        if (len(a) * len(b) >= KRONECKER_MIN_TERMS
                and all(type(x) is int for x in a.values())
                and all(type(x) is int for x in b.values())):
            out._c = _kronecker(a, b)
            return out
        c: dict[int, Scalar] = {}
        get = c.get
        terms = list(b.items())
        for n1, a1 in a.items():
            for n2, a2 in terms:
                n = n1 + n2
                c[n] = get(n, 0) + a1 * a2
        out._c = {n: x for n, x in c.items() if x}
        return out

    __rmul__ = __mul__

    def shift(self, half_exp: int) -> "LaurentPoly":
        """Multiply by X^(half_exp/2)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {n + half_exp: a for n, a in self._c.items()}
        return out

    def truncate(self, max_half_exp: int) -> "LaurentPoly":
        """Drop monomials with exponent above max_half_exp/2."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {n: a for n, a in self._c.items() if n <= max_half_exp}
        return out

    # -- export ------------------------------------------------------------

    def to_json(self) -> list[list]:
        return [[n, str(a)] for n, a in sorted(self._c.items())]

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.from_scalar(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(tuple(sorted(self._c.items())))

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for n, a in sorted(self._c.items()):
            if n == 0:
                parts.append(f"{a}")
            elif n % 2 == 0:
                parts.append(f"{a}*q^{n // 2}")
            else:
                parts.append(f"{a}*q^({n}/2)")
        return " + ".join(parts)


def sum_of_products(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]],
                    max_half_exp: int) -> LaurentPoly:
    """sum a * b over the (a, b) in ``pairs``, monomials above
    X^(max_half_exp/2) dropped.

    Each product is formed by ``LaurentPoly.__mul__``; its terms at or below
    the cutoff are added into one dict, and zero coefficients are dropped
    once, at the end (the dict is rebuilt only when the products cancelled
    somewhere).  Coefficients are exact, so the sum of the truncated
    products is the truncated sum.
    """
    c: dict[int, Scalar] = {}
    get = c.get
    for a, b in pairs:
        for n, x in (a * b)._c.items():
            if n <= max_half_exp:
                c[n] = get(n, 0) + x
    if 0 in c.values():
        c = {n: x for n, x in c.items() if x}
    out = LaurentPoly.__new__(LaurentPoly)
    out._c = c
    return out
