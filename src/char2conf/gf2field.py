"""Arithmetic in GF(2^n) with the characteristic-2 maps the geometry needs.

Field elements are plain ints: bit i of the int is the coefficient of x^i.
Addition is XOR; multiplication is carry-less polynomial multiplication
reduced by an irreducible modulus.  A GF2Field object carries the modulus
and all derived operations (square root, trace, the additive map
h(x) = x + x^2, Artin-Schreier solving, and through it the roots of
any quadratic a t^2 + b t + c).

The trace, the square root and the inverse of h on its image h(K) are
GF(2)-linear, so each field tabulates them once on the basis x^0..x^(n-1)
(O(n^2) multiplications): the trace as a bit mask, the square root as n
columns, and h(K) as n - 1 echelon rows that carry their preimages.

Fields of degree n <= TABLE_DEGREE also keep log/exp tables over the
2^n - 1 nonzero elements, built once from a primitive element, so that
`mul` is two lookups and an add and `pow` (hence `inv`) is one lookup.
The exp table runs to 3(q - 1) entries, so a sum of three logs indexes
it without reduction: the form kernels of `quadspace` read c*x*y as
exp[log c + log x + log y].  Larger fields multiply by shift-and-add,
which also builds the tables and is the reference the tests check them
against.

An Arf value is an `Arf` record: a field element, or None for infinity.
Like the package's other value records it is a plain frozen class on
the bases of `record`, hashed as the tuple of its fields.
"""

from .errors import (
    ModulusReducibleError, UnsupportedDegreeError, document_fields,
)
from .record import FrozenRecord

# Exhaustive oracles over the whole field stay tractable up to here.
MAX_DEGREE = 16

# Fields up to this degree get log/exp tables.  Building them steps
# through the powers of each candidate generator by shift-and-add, which
# costs about 0.3 ms at n = 8 but 3 ms at n = 12 and 60 ms at n = 16
# (Python 3.11, one core of a shared VM): above n = 8 the tables would
# cost more than the whole of constructing the field and importing the
# package.
TABLE_DEGREE = 8

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


def check_degree(n):
    """Raise UnsupportedDegreeError unless n is an int in 1..MAX_DEGREE."""
    if type(n) is not int or not 1 <= n <= MAX_DEGREE:
        raise UnsupportedDegreeError(
            "degree %r outside 1..%d" % (n, MAX_DEGREE))


def default_modulus(n):
    """Lexicographically smallest irreducible polynomial of degree n."""
    for m in range(1 << n, 1 << (n + 1)):
        if poly_is_irreducible(m):
            return m
    raise AssertionError("no irreducible polynomial of degree %d" % n)


class Arf(FrozenRecord):
    """A value of the Arf invariant: an element of K, or infinity (None)."""

    __slots__ = _fields = ("value",)

    def __init__(self, value):
        if value is not None and type(value) is not int:
            raise ValueError("Arf value %r is neither an int nor None"
                             % (value,))
        object.__setattr__(self, "value", value)

    @classmethod
    def finite(cls, value):
        if value is None:
            raise ValueError("a finite Arf value cannot be None")
        return cls(value)

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
        check_degree(n)
        if modulus is None:
            modulus = default_modulus(n)
        if type(modulus) is not int or modulus < 0:
            raise UnsupportedDegreeError(
                "modulus %r is not a nonnegative int" % (modulus,))
        if poly_degree(modulus) != n:
            raise UnsupportedDegreeError(
                "modulus %#x does not have degree %d" % (modulus, n))
        if not poly_is_irreducible(modulus):
            raise ModulusReducibleError("modulus %#x factors over GF(2)" % modulus)
        self.n = n
        self.modulus = modulus
        self.order = 1 << n
        # exp[i] = g^i for a primitive g, repeated to 3(q - 1) entries so
        # that a sum of up to three logs needs no reduction: mul reads
        # log a + log b, the quadspace form kernels log c + log x + log y;
        # log[0] is never read
        self._exp = self._log = None
        if n <= TABLE_DEGREE:
            powers = self._primitive_powers()
            self._exp = powers * 3
            log = [0] * self.order
            for i, x in enumerate(powers):
                log[x] = i
            self._log = tuple(log)
        # trace(x^i) is bit i of the mask; sqrt(x^i) = (x^i)^(2^(n-1)) is
        # column i; both come from the same n - 1 squarings of x^i
        self._trace_mask = 0
        self._sqrt_cols = []
        for i in range(n):
            x = t = 1 << i
            for _ in range(n - 1):
                x = self.mul(x, x)
                t ^= x
            self._trace_mask |= t << i
            self._sqrt_cols.append(x)
        # h(x^1), ..., h(x^(n-1)) span h(K), the kernel of the trace (h has
        # kernel {0, 1}).  Echelon rows (top bit, image, preimage), highest
        # top bit first; no preimage has bit 0 set.
        pivots = {}
        for i in range(1, n):
            image, pre = self.h(1 << i), 1 << i
            while image.bit_length() in pivots:
                row_image, row_pre = pivots[image.bit_length()]
                image ^= row_image
                pre ^= row_pre
            pivots[image.bit_length()] = (image, pre)
        self._h_rows = tuple((1 << (k - 1), image, pre)
                             for k, (image, pre) in sorted(pivots.items(),
                                                           reverse=True))

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
        if type(a) is not int or not 0 <= a < self.order:
            raise ValueError("%r is not an element of %r" % (a, self))
        return a

    # -- ring operations ------------------------------------------------

    @staticmethod
    def add(a, b):
        return a ^ b

    def _shift_mul(self, a, b):
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

    def _primitive_powers(self):
        """(1, g, g^2, ..., g^(q-2)) for the smallest primitive element g.

        x itself need not be primitive: under the modulus 0x11b of
        degree 8 it has order 51.
        """
        for g in range(1, self.order):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = self._shift_mul(x, g)
            if len(powers) == self.order - 1:
                return tuple(powers)
        raise AssertionError("no primitive element in %r" % self)

    def mul(self, a, b):
        """Product of a and b: exp[log a + log b], or shift-and-add."""
        log = self._log
        if log is None:
            return self._shift_mul(a, b)
        if a and b:
            return self._exp[log[a] + log[b]]
        return 0

    def pow(self, a, k):
        """a**k for k >= 0, with 0**0 = 1.

        With tables this is exp[(log a * k) mod (q - 1)]; otherwise
        square-and-multiply.
        """
        if k < 0:
            raise ValueError("negative exponent %r" % (k,))
        if self._log is not None:
            if a:
                return self._exp[self._log[a] * k % (self.order - 1)]
            return 0 if k else 1
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
        """The unique square root a^(2^(n-1)): x -> x^2 is a bijection.

        Squaring is GF(2)-linear, so this XORs the tabulated sqrt(x^i) over
        the set bits of a.
        """
        r = 0
        for col in self._sqrt_cols:
            if not a:
                break
            if a & 1:
                r ^= col
            a >>= 1
        return r

    def trace(self, a):
        """p(a) = a + a^2 + a^4 + ... + a^(2^(n-1)); always 0 or 1.

        The trace is GF(2)-linear: the parity of the bits a shares with
        the tabulated mask.
        """
        return (a & self._trace_mask).bit_count() & 1

    def h(self, a):
        """The additive map h(a) = a + a^2."""
        return a ^ self.mul(a, a)

    def solve_quadratic(self, a):
        """Both roots of x^2 + x + a, or None when trace(a) = 1.

        The two roots differ by 1.  Returned as an increasing pair.
        Reduces a against the echelon rows of h(K); a remainder means
        a is not in h(K).  The root found has bit 0 clear, so it is the
        smaller one.
        """
        r = 0
        for top, image, pre in self._h_rows:
            if a & top:
                a ^= image
                r ^= pre
        if a:
            return None
        return (r, r ^ 1)

    def quadratic_roots(self, a, b, c):
        """The t with a t^2 + b t + c = 0, in increasing order.

        With a and b nonzero, t = (b/a) s for the roots s of the
        Artin-Schreier equation s^2 + s = a c / b^2, so there are two
        roots differing by b/a, or none (Lidl and Niederreiter, Finite
        Fields, 1997, ch. 6); c = 0 gives 0 and b/a without solving.
        With a alone the root is sqrt(c/a), with b alone c/b, and with
        neither every element is a root when c = 0 and none otherwise.
        """
        if a and b:
            scale = self.div(b, a)
            if not c:
                return (0, scale)
            roots = self.solve_quadratic(self.div(c, self.mul(b, scale)))
            if roots is None:
                return ()
            t = self.mul(scale, roots[0])
            u = t ^ scale
            return (t, u) if t < u else (u, t)
        if a:
            return (self.sqrt(self.div(c, a)),)
        if b:
            return (self.div(c, b),)
        return () if c else self.elements()

    # -- Arf normalization ----------------------------------------------

    def arf_e(self):
        """Canonical representative of the nonzero Arf class.

        The smallest element of trace 1: the lowest x^i with trace 1,
        since every smaller element is a sum of lower powers of trace 0.
        """
        return self._trace_mask & -self._trace_mask

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
