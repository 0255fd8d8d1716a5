"""Arithmetic in GF(2^n) with the characteristic-2 maps the geometry needs.

Field elements are plain ints: bit i of the int is the coefficient of x^i.
Addition is XOR; multiplication is carry-less polynomial multiplication
reduced by an irreducible modulus.  A GF2Field object carries the modulus
and all derived operations (square root, trace, the additive map
h(x) = x + x^2, Artin-Schreier solving).
"""

from dataclasses import dataclass
from typing import Optional

from .errors import (
    ModulusReducibleError, UnsupportedDegreeError, document_fields,
)

# Exhaustive oracles over the whole field stay tractable up to here.
MAX_DEGREE = 16

# Normalized Arf classes: the quotient K+/h(K), plus the infinite class.
CLASS_ZERO = "0"
CLASS_E = "e"
CLASS_INF = "inf"


def poly_degree(p):
    """Degree of a GF(2)[x] polynomial encoded as an int (-1 for 0)."""
    return p.bit_length() - 1


def poly_mod(a, m):
    """Remainder of a modulo m in GF(2)[x]."""
    dm = poly_degree(m)
    while poly_degree(a) >= dm:
        a ^= m << (poly_degree(a) - dm)
    return a


def poly_is_irreducible(m):
    """Trial division by every polynomial of degree 1 .. deg(m)//2."""
    n = poly_degree(m)
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for div in range(1 << d, 1 << (d + 1)):
            if poly_mod(m, div) == 0:
                return False
    return True


def default_modulus(n):
    """Lexicographically smallest irreducible polynomial of degree n."""
    for m in range(1 << n, 1 << (n + 1)):
        if poly_is_irreducible(m):
            return m
    raise AssertionError("no irreducible polynomial of degree %d" % n)


@dataclass(frozen=True)
class Arf:
    """A value of the Arf invariant: an element of K, or infinity (None)."""

    value: Optional[int]

    @classmethod
    def finite(cls, value):
        return cls(int(value))

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_infinity(self):
        return self.value is None

    def __str__(self):
        return "inf" if self.value is None else str(self.value)


class GF2Field:
    """The field GF(2^n) under a fixed irreducible modulus.

    Parameters
    ----------
    n : int
        Extension degree, 1 <= n <= MAX_DEGREE.
    modulus : int, optional
        Irreducible polynomial of degree exactly n (bit i = coefficient
        of x^i).  Defaults to the lexicographically smallest one.
    """

    def __init__(self, n, modulus=None):
        if not 1 <= n <= MAX_DEGREE:
            raise UnsupportedDegreeError(
                "degree %r outside 1..%d" % (n, MAX_DEGREE))
        if modulus is None:
            modulus = default_modulus(n)
        if poly_degree(modulus) != n:
            raise UnsupportedDegreeError(
                "modulus %#x does not have degree %d" % (modulus, n))
        if not poly_is_irreducible(modulus):
            raise ModulusReducibleError("modulus %#x factors over GF(2)" % modulus)
        self.n = n
        self.modulus = modulus
        self.order = 1 << n
        self._as_roots = None  # lazy: h-image -> smallest root of x^2+x=a

    def __eq__(self, other):
        return (isinstance(other, GF2Field)
                and self.n == other.n and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.n, self.modulus))

    def __repr__(self):
        return "GF2Field(n=%d, modulus=%#x)" % (self.n, self.modulus)

    def elements(self):
        """All field elements in their canonical integer order."""
        return range(self.order)

    def check(self, a):
        """Validate an element encoding and return it."""
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ValueError("%r is not an element of %r" % (a, self))
        return a

    # -- ring operations ------------------------------------------------

    @staticmethod
    def add(a, b):
        return a ^ b

    def mul(self, a, b):
        """Carry-less product of a and b reduced by the modulus."""
        acc = 0
        top = self.order
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self.modulus
        return acc

    def pow(self, a, k):
        """a**k by square-and-multiply (k >= 0)."""
        out = 1
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def inv(self, a):
        """Multiplicative inverse; a != 0."""
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in %r" % self)
        return self.pow(a, self.order - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- characteristic-2 special maps ----------------------------------

    def sqrt(self, a):
        """The unique square root: x -> x^2 is a bijection, so a^(2^(n-1))."""
        for _ in range(self.n - 1):
            a = self.mul(a, a)
        return a

    def trace(self, a):
        """p(a) = a + a^2 + a^4 + ... + a^(2^(n-1)); always 0 or 1."""
        t = a
        x = a
        for _ in range(self.n - 1):
            x = self.mul(x, x)
            t ^= x
        return t

    def h(self, a):
        """The additive map h(a) = a + a^2."""
        return a ^ self.mul(a, a)

    def h_member(self, a):
        """Whether a lies in h(K), i.e. trace(a) == 0."""
        return self.trace(a) == 0

    def harf(self, a):
        """(h(a), a in h(K)) in one call."""
        return self.h(a), self.h_member(a)

    def solve_quadratic(self, a):
        """Both roots of x^2 + x + a, or None when trace(a) = 1.

        The two roots differ by 1.  Returned as an increasing pair.
        """
        if self.trace(a) != 0:
            return None
        if self._as_roots is None:
            roots = {}
            for x in self.elements():
                roots.setdefault(self.h(x), min(x, x ^ 1))
            self._as_roots = roots
        r = self._as_roots[a]
        return (r, r ^ 1)

    # -- Arf normalization ----------------------------------------------

    def arf_e(self):
        """Canonical representative of the nonzero Arf class."""
        for a in self.elements():
            if self.trace(a) == 1:
                return a
        raise AssertionError("trace is identically 0 on %r" % self)

    def arf_normalize(self, arf):
        """Class of an Arf value in {CLASS_ZERO, CLASS_E, CLASS_INF}."""
        if arf.is_infinity:
            return CLASS_INF
        return CLASS_ZERO if self.trace(arf.value) == 0 else CLASS_E

    def arf_of_class(self, cls):
        """Canonical Arf value of a normalized class."""
        if cls == CLASS_INF:
            return Arf.infinity()
        if cls == CLASS_ZERO:
            return Arf.finite(0)
        if cls == CLASS_E:
            return Arf.finite(self.arf_e())
        raise ValueError("unknown Arf class %r" % (cls,))

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return {"n": self.n, "modulus": self.modulus}

    @classmethod
    def from_json(cls, doc):
        n, modulus = document_fields(doc, "field", n="int", modulus="int")
        return cls(n, modulus)
