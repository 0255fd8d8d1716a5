"""Stand-alone GF(2^n) arithmetic for making inputs and checking outputs.

Written apart from char2conf on purpose: the benchmark must not trust the
code it measures to generate its own inputs or to grade its own answers.
Multiplication is a full carry-less product followed by long division,
unlike the library's interleaved shift-and-reduce loop.
"""


def is_irreducible(m):
    n = m.bit_length() - 1
    for d in range(1, n // 2 + 1):
        for div in range(1 << d, 1 << (d + 1)):
            if poly_mod(m, div) == 0:
                return False
    return n >= 1


def poly_mod(a, m):
    dm = m.bit_length() - 1
    for d in range(a.bit_length() - 1, dm - 1, -1):
        if a >> d & 1:
            a ^= m << (d - dm)
    return a


def default_modulus(n):
    """Smallest irreducible polynomial of degree n (the library default)."""
    return next(m for m in range(1 << n, 1 << (n + 1)) if is_irreducible(m))


def mul(a, b, modulus):
    prod = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            prod ^= a << i
    return poly_mod(prod, modulus)


def trace(a, n, modulus):
    acc, x = a, a
    for _ in range(n - 1):
        x = mul(x, x, modulus)
        acc ^= x
    return acc


def arf_class(value, n, modulus):
    """Class "0", "e" or "inf" of an Arf value (None for infinity)."""
    if value is None:
        return "inf"
    return "e" if trace(value, n, modulus) else "0"


def mat_vec(m, v, modulus):
    out = []
    for row in m:
        acc = 0
        for a, b in zip(row, v):
            acc ^= mul(a, b, modulus)
        out.append(acc)
    return tuple(out)


def normalize(v, n, modulus):
    """Leading-one representative of a nonzero vector."""
    lead = next(x for x in v if x)
    inv = next(y for y in range(1, 1 << n) if mul(lead, y, modulus) == 1)
    return tuple(mul(inv, x, modulus) for x in v)


# The nine plane geometries by (Arf(P) class, Arf(L) class).
CLASS_NAMES = {
    ("e", "e"): "elliptic", ("e", "inf"): "parabolic",
    ("e", "0"): "hyperbolic", ("inf", "e"): "dual-parabolic",
    ("inf", "inf"): "laguerre-galilei", ("inf", "0"): "dual-minkowski",
    ("0", "e"): "dual-hyperbolic", ("0", "inf"): "minkowski",
    ("0", "0"): "anti-de-sitter",
}


def quadric_size(q, total_class):
    """Points of a non-degenerate quadric in PG(5, q), by total Arf class."""
    if total_class == "0":
        return (q ** 3 - 1) * (q ** 2 + 1) // (q - 1)
    return (q ** 3 + 1) * (q + 1)
