"""Field core: documented values, exhaustive small-field properties."""

import random

import pytest

from char2conf.gf2field import (
    GF2Field, Arf, CLASS_ZERO, CLASS_E, CLASS_INF, MAX_DEGREE, TABLE_DEGREE,
    poly_is_irreducible, default_modulus,
)
from char2conf.errors import (
    MalformedDocumentError, ModulusReducibleError, UnsupportedDegreeError,
)


def poly_mul_gf2(a, b):
    """Schoolbook carry-less multiply, used as the irreducibility oracle."""
    out = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            out ^= a << i
        i += 1
    return out


def test_default_moduli():
    assert GF2Field(1).modulus == 2           # x
    assert GF2Field(2).modulus == 7           # x^2+x+1
    assert GF2Field(3).modulus == 11          # x^3+x+1
    assert GF2Field(4).modulus == 19          # x^4+x+1


def test_irreducibility_against_multiplication_oracle():
    # every product of two nonconstant polynomials must be reducible,
    # and the default moduli must never appear among such products
    products = set()
    for a in range(2, 1 << 5):
        for b in range(2, 1 << 5):
            products.add(poly_mul_gf2(a, b))
    for n in range(1, 9):
        m = default_modulus(n)
        assert poly_is_irreducible(m)
        if n <= 8:
            assert m not in products or m.bit_length() > 9
    # spot checks both ways
    assert not poly_is_irreducible(9)         # x^3+1 = (x+1)(x^2+x+1)
    assert poly_mul_gf2(3, 7) == 9
    assert not poly_is_irreducible(6)         # x^2+x = x(x+1)


def test_bad_construction():
    with pytest.raises(ModulusReducibleError):
        GF2Field(3, 9)
    with pytest.raises(UnsupportedDegreeError):
        GF2Field(0)
    with pytest.raises(UnsupportedDegreeError):
        GF2Field(17)
    with pytest.raises(UnsupportedDegreeError):
        GF2Field(3, 7)  # degree 2 modulus for degree 3 field


def test_modulus_must_be_a_nonnegative_int():
    # 11.0 and "11" have no bit_length, and trial division of a negative
    # modulus never terminates
    for n, bad in ((3, 11.0), (3, "11"), (1, True), (3, False), (2, -5),
                   (3, -11)):
        with pytest.raises(UnsupportedDegreeError):
            GF2Field(n, bad)
    assert GF2Field(3, 11) == GF2Field(3)


def test_gf4_multiplication_table():
    gf4 = GF2Field(2)
    assert gf4.mul(2, 3) == 1
    assert gf4.mul(2, 2) == 3
    assert gf4.mul(3, 3) == 2
    for a in gf4.elements():
        assert gf4.mul(a, 1) == a
        assert gf4.mul(a, 0) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ring_axioms_exhaustive(n):
    f = GF2Field(n)
    for a in f.elements():
        for b in f.elements():
            assert f.mul(a, b) == f.mul(b, a)
            for c in f.elements():
                if n <= 3:
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_inverse_and_pow_randomized_large_n():
    rng = random.Random(42)
    for n in (8, 12, 16):
        f = GF2Field(n)
        for _ in range(50):
            a = rng.randrange(1, f.order)
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, f.order - 1) == 1


def test_sqrt():
    gf4 = GF2Field(2)
    assert gf4.sqrt(0) == 0
    assert gf4.sqrt(2) == 3
    assert gf4.sqrt(3) == 2
    for n in (1, 2, 3, 4):
        f = GF2Field(n)
        for a in f.elements():
            assert f.sqrt(f.mul(a, a)) == a
            r = f.sqrt(a)
            assert f.mul(r, r) == a


def test_trace_values():
    gf2 = GF2Field(1)
    assert gf2.trace(1) == 1
    gf4 = GF2Field(2)
    assert [gf4.trace(a) for a in gf4.elements()] == [0, 0, 1, 1]
    for n in (1, 2, 3, 4, 8):
        f = GF2Field(n)
        for a in f.elements():
            assert f.trace(a) in (0, 1)
            for b in f.elements():
                if n <= 4:
                    assert f.trace(a ^ b) == f.trace(a) ^ f.trace(b)


def test_h_map():
    gf4 = GF2Field(2)
    assert (gf4.h(2), gf4.trace(2) == 0) == (1, False)
    assert (gf4.h(0), gf4.trace(0) == 0) == (0, True)
    assert {gf4.h(a) for a in gf4.elements()} == {0, 1}
    for n in range(1, 9):
        f = GF2Field(n)
        image = {f.h(a) for a in f.elements()}
        kernel_of_trace = {a for a in f.elements() if f.trace(a) == 0}
        assert image == kernel_of_trace
        assert len(image) == f.order // 2
        for a in f.elements():
            assert (f.trace(a) == 0) == (a in image)
    # additivity
    f = GF2Field(4)
    for a in f.elements():
        for b in f.elements():
            assert f.h(a ^ b) == f.h(a) ^ f.h(b)


def test_solve_quadratic():
    gf4 = GF2Field(2)
    assert gf4.solve_quadratic(0) == (0, 1)
    assert gf4.solve_quadratic(1) == (2, 3)
    assert gf4.solve_quadratic(2) is None
    gf2 = GF2Field(1)
    assert gf2.solve_quadratic(1) is None
    for n in (1, 2, 3, 4):
        f = GF2Field(n)
        for a in f.elements():
            roots = f.solve_quadratic(a)
            brute = tuple(sorted(x for x in f.elements()
                                 if f.mul(x, x) ^ x ^ a == 0))
            if f.trace(a) == 0:
                assert roots == brute and len(roots) == 2
                assert roots[0] ^ roots[1] == 1
            else:
                assert roots is None and brute == ()


def roots_by_scan(f, a, b):
    """c -> the t with a t^2 + b t + c = 0, increasing, from the value
    of a t^2 + b t at every t.  The map is additive in characteristic 2,
    so the value at t is the value at t less its lowest bit plus the
    value at that bit."""
    at_bit = [f.mul(a, f.mul(x, x)) ^ f.mul(b, x)
              for x in (1 << i for i in range(f.n))]
    values = [0]
    roots = {0: [0]}
    for t in range(1, f.order):
        low = t & -t
        values.append(values[t ^ low] ^ at_bit[low.bit_length() - 1])
        roots.setdefault(values[t], []).append(t)
    return {c: tuple(ts) for c, ts in roots.items()}


def assert_quadratic_roots(f, a, b, cs):
    scan = roots_by_scan(f, a, b)
    for c in cs:
        # tuple equality checks the root set and the ascending order
        assert tuple(f.quadratic_roots(a, b, c)) == scan.get(c, ())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadratic_roots_match_a_raw_scan_exhaustively(n):
    f = GF2Field(n)
    for a in f.elements():
        for b in f.elements():
            assert_quadratic_roots(f, a, b, f.elements())


@pytest.mark.parametrize("n", [8, 9, 16])
def test_quadratic_roots_match_a_raw_scan_sampled(n):
    # (a, 0) and (0, b) give one root, (0, 0) all or none, and for a
    # and b nonzero a c = a t^2 + b t has two roots and a random c two
    # or none
    f = GF2Field(n)
    rng = random.Random(n)
    nonzero = lambda: rng.randrange(1, f.order)  # noqa: E731
    shapes = [(nonzero(), 0), (0, nonzero()), (0, 0)]
    shapes += [(nonzero(), nonzero()) for _ in range(8)]
    for a, b in shapes:
        cs = [0] + [rng.randrange(f.order) for _ in range(8)]
        cs += [f.mul(a, f.mul(t, t)) ^ f.mul(b, t)
               for t in (rng.randrange(f.order) for _ in range(8))]
        assert_quadratic_roots(f, a, b, cs)
    assert f.quadratic_roots(0, 0, 0) == f.elements()


def test_arf_normalization():
    gf4 = GF2Field(2)
    assert gf4.arf_e() == 2
    assert gf4.arf_normalize(Arf.finite(0)) == CLASS_ZERO
    assert gf4.arf_normalize(Arf.finite(1)) == CLASS_ZERO
    assert gf4.arf_normalize(Arf.finite(3)) == CLASS_E
    assert gf4.arf_normalize(Arf.infinity()) == CLASS_INF
    assert gf4.arf_of_class(CLASS_E) == Arf.finite(2)
    assert GF2Field(1).arf_e() == 1
    assert str(Arf.infinity()) == "inf"
    assert str(Arf.finite(3)) == "3"


@pytest.mark.parametrize("bad", [1.9, "3", True, False])
def test_arf_values_are_ints_or_none(bad):
    # nothing is coerced: 1.9 must not become Arf(1), and True must not
    # compare equal to Arf(1)
    with pytest.raises(ValueError):
        Arf.finite(bad)
    with pytest.raises(ValueError):
        Arf(bad)


def test_finite_arf_refuses_none():
    with pytest.raises(ValueError):
        Arf.finite(None)
    assert Arf(None) == Arf.infinity()
    assert Arf.finite(3).value == 3


def test_lindex_small_fields():
    # For lambda outside {0,1}: |lambda*h(K) & h(K)| = 2^n/4, the union
    # additively generates K, and lambda*h(K) is not contained in h(K).
    for n in (2, 3, 4):
        f = GF2Field(n)
        h_img = {f.h(a) for a in f.elements()}
        for lam in f.elements():
            scaled = {f.mul(lam, a) for a in h_img}
            if lam in (0, 1):
                assert scaled <= h_img
                continue
            assert not scaled <= h_img
            assert len(scaled & h_img) == f.order // 4
            sums = {a ^ b for a in scaled for b in h_img}
            assert sums == set(f.elements())


def test_field_equality_and_json():
    f = GF2Field(3)
    g = GF2Field.from_json(f.to_json())
    assert f == g and hash(f) == hash(g)
    assert f.to_json() == {"n": 3, "modulus": 11}
    assert f != GF2Field(3, 13)


def test_bools_are_not_integers():
    # JSON true/false load as bool, a subclass of int
    with pytest.raises(MalformedDocumentError):
        GF2Field.from_json({"n": True, "modulus": 3})
    with pytest.raises(MalformedDocumentError):
        GF2Field.from_json({"n": 1, "modulus": True})
    with pytest.raises(UnsupportedDegreeError):
        GF2Field(True)
    for a in (True, False):
        with pytest.raises(ValueError):
            GF2Field(3).check(a)


# -- the tabulated GF(2)-linear maps against their defining formulas --------

def largest_modulus(n):
    """Lexicographically largest irreducible polynomial of degree n."""
    return next(m for m in range((2 << n) - 1, (1 << n) - 1, -1)
                if poly_is_irreducible(m))


def ref_trace(f, a):
    """a + a^2 + ... + a^(2^(n-1)) by repeated squaring through mul."""
    t = x = a
    for _ in range(f.n - 1):
        x = f.mul(x, x)
        t ^= x
    return t


def sample(f, rng):
    """Every element up to n = 12, else 2000 seeded samples."""
    if f.n <= 12:
        return f.elements()
    return [rng.randrange(f.order) for _ in range(2000)]


FIELDS = [(n, which) for n in range(1, MAX_DEGREE + 1)
          for which in ("default", "largest")]


def make_field(n, which):
    return GF2Field(n, None if which == "default" else largest_modulus(n))


@pytest.mark.parametrize("n,which", FIELDS)
def test_linear_maps_match_defining_formulas(n, which):
    f = make_field(n, which)
    rng = random.Random(n)
    for a in sample(f, rng):
        t = ref_trace(f, a)
        assert t in (0, 1)
        assert f.trace(a) == t
        r = f.sqrt(a)
        assert f.mul(r, r) == a
        roots = f.solve_quadratic(a)
        assert (roots is None) == (t == 1)
        if roots is not None:
            assert roots[0] ^ f.mul(roots[0], roots[0]) == a
        # the smaller root, the one with bit 0 clear, comes first
        x = a & ~1
        assert f.solve_quadratic(a ^ f.mul(a, a)) == (x, x ^ 1)


@pytest.mark.parametrize("n,which", FIELDS)
def test_arf_e_is_the_first_element_of_trace_one(n, which):
    f = make_field(n, which)
    assert f.arf_e() == next(a for a in f.elements() if ref_trace(f, a) == 1)


class MulCountingField(GF2Field):
    def __init__(self, n, modulus=None):
        self.mul_calls = 0
        super().__init__(n, modulus)

    def mul(self, a, b):
        self.mul_calls += 1
        return super().mul(a, b)


def test_no_full_field_work():
    # the special maps come from O(n^2) products on the basis x^i; no
    # table or scan over all 2^16 elements
    f = MulCountingField(16)
    rng = random.Random(16)
    for _ in range(100):
        f.solve_quadratic(rng.randrange(f.order))
        f.arf_e()
    assert f.mul_calls < 2000


# -- log/exp tables against shift-and-add ----------------------------------

TABLE_FIELDS = [(n, which) for n in range(1, TABLE_DEGREE + 1)
                for which in ("default", "largest")]


def test_tables_exactly_up_to_degree_8():
    assert TABLE_DEGREE == 8
    for n in range(1, MAX_DEGREE + 1):
        f = GF2Field(n)
        assert (f._log is not None) == (f._exp is not None) == (n <= 8)
        if n <= 8:
            # a sum of three logs, as the form kernels read it, needs
            # no reduction
            assert len(f._exp) == 3 * (f.order - 1)
            # the tables alone serve mul, pow and inv
            f._shift_mul = None
            a = f.order - 1
            assert f.mul(f.inv(a), a) == 1 == f.pow(a, f.order - 1)


def test_x_is_not_primitive_under_the_default_degree_8_modulus():
    # the case the tables must not assume away: x = 2 has order 51
    f = GF2Field(8)
    assert f.modulus == 0x11b
    x, order = 2, 1
    while x != 1:
        x = f._shift_mul(x, 2)
        order += 1
    assert order == 51


@pytest.mark.parametrize("n,which", TABLE_FIELDS)
def test_table_mul_matches_shift_and_add_exhaustively(n, which):
    f = make_field(n, which)
    for a in f.elements():
        assert [f.mul(a, b) for b in f.elements()] \
            == [f._shift_mul(a, b) for b in f.elements()]


@pytest.mark.parametrize("n,which", TABLE_FIELDS)
def test_table_inv_times_a_is_one(n, which):
    f = make_field(n, which)
    for a in range(1, f.order):
        assert f._shift_mul(f.inv(a), a) == 1


def repeated_powers(f, a, count):
    """a^0, a^1, ..., a^(count-1) by repeated shift-and-add products."""
    out, x = [], 1
    for _ in range(count):
        out.append(x)
        x = f._shift_mul(x, a)
    return out


@pytest.mark.parametrize("n,which", [(n, w) for n, w in TABLE_FIELDS
                                     if n <= 6])
def test_table_pow_every_exponent_below_2q(n, which):
    f = make_field(n, which)
    for a in f.elements():
        assert [f.pow(a, k) for k in range(2 * f.order)] \
            == repeated_powers(f, a, 2 * f.order)


@pytest.mark.parametrize("which", ["default", "largest"])
def test_table_pow_sampled_at_degree_8(which):
    f = make_field(8, which)
    rng = random.Random(8)
    for _ in range(300):
        a = rng.randrange(f.order)
        k = rng.randrange(1 << 20)
        # square-and-multiply on the shift-and-add product
        want, base, e = 1, a, k
        while e:
            if e & 1:
                want = f._shift_mul(want, base)
            base = f._shift_mul(base, base)
            e >>= 1
        assert f.pow(a, k) == want
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0


@pytest.mark.parametrize("n", [3, 8, 9, 16])
def test_pow_rejects_negative_exponents_on_both_paths(n):
    f = GF2Field(n)
    for a in (0, 1, 3):
        with pytest.raises(ValueError):
            f.pow(a, -1)
    assert f.pow(0, 0) == 1 and f.pow(3, 0) == 1 and f.pow(0, 2) == 0
