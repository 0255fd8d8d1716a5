"""Quadratic form layer: documented values and exhaustive small cases."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from char2conf.gf2field import (
    GF2Field, Arf, CLASS_ZERO, CLASS_E, CLASS_INF, MAX_DEGREE, TABLE_DEGREE,
)
from char2conf.metric import ort_group, ort_plus
from char2conf.quadspace import (
    DEGENERATE_PAIR, QuadraticForm, Subspace, arf_invariant,
    enumerate_isometries, isometry_order, spaces_isomorphic,
    symplectic_basis,
)
from char2conf import linalg, quadspace
from char2conf.errors import (
    Char2ConfError, ContractViolationError, DegenerateBilinearError,
    DegenerateFormError, DimMismatchError, FieldMismatchError,
    MalformedDocumentError, NotDefinedError, TooLargeError,
)

GF2 = GF2Field(1)
GF4 = GF2Field(2)


def hyperbolic(field):
    return QuadraticForm(field, [[0, 1], [0, 0]])


def elliptic(field, e=None):
    e = field.arf_e() if e is None else e
    return QuadraticForm(field, [[1, 1], [0, e]])


def all_invertible(field, dim):
    mats = []
    for flat in itertools.product(field.elements(), repeat=dim * dim):
        m = tuple(tuple(flat[i * dim + j] for j in range(dim))
                  for i in range(dim))
        if linalg.mat_inv(field, m) is not None:
            mats.append(m)
    return mats


def test_q_eval_documented():
    h = hyperbolic(GF2)
    assert h.q((1, 1)) == 1
    assert h.q((0, 0)) == 0
    e = elliptic(GF2)
    assert e.q((1, 0)) == 1
    assert e.q((1, 1)) == 1
    with pytest.raises(DimMismatchError):
        h.q((1, 0, 0))


def test_triangular_storage_enforced():
    with pytest.raises(DimMismatchError):
        QuadraticForm(GF2, [[0, 0], [1, 0]])


def test_b_eval_documented():
    h = hyperbolic(GF2)
    assert h.b((1, 0), (0, 1)) == 1
    e = elliptic(GF2)
    assert e.b((1, 0), (1, 1)) == 1
    for v in itertools.product(GF2.elements(), repeat=2):
        assert h.b(v, v) == 0
        assert e.b(v, v) == 0


def test_b_eval_matches_polarization():
    rng = random.Random(7)
    f = GF2Field(3)
    form = QuadraticForm(f, [[3, 5, 1], [0, 2, 7], [0, 0, 4]])
    for _ in range(200):
        u = tuple(rng.randrange(f.order) for _ in range(3))
        v = tuple(rng.randrange(f.order) for _ in range(3))
        assert form.b(u, v) == form.q(linalg.vec_add(u, v)) ^ form.q(u) ^ form.q(v)
        lam = rng.randrange(f.order)
        assert form.q(linalg.vec_scale(f, lam, u)) == f.mul(f.mul(lam, lam), form.q(u))


def test_radical():
    assert hyperbolic(GF2).radical().dim == 0
    assert QuadraticForm(GF2, [[1]]).radical().dim == 0
    zero_line = QuadraticForm(GF2, [[0]])
    assert zero_line.radical().basis == ((1,),)
    sq_sum = QuadraticForm(GF2, [[1, 0], [0, 1]])
    assert sq_sum.radical().basis == ((1, 1),)
    # brute-force cross-check over GF(4), dim 2
    for c00, c01, c11 in itertools.product(GF4.elements(), repeat=3):
        form = QuadraticForm(GF4, [[c00, c01], [0, c11]])
        rad = form.radical()
        brute = [v for v in itertools.product(GF4.elements(), repeat=2)
                 if form.q(v) == 0
                 and all(form.b(v, u) == 0
                         for u in itertools.product(GF4.elements(), repeat=2))]
        assert len(brute) == GF4.order ** rad.dim
        assert all(rad.contains(v) for v in brute)


def test_symplectic_basis():
    assert symplectic_basis(hyperbolic(GF2)) == [((1, 0), (0, 1))]
    assert symplectic_basis(elliptic(GF2)) == [((1, 0), (0, 1))]
    double = hyperbolic(GF2).direct_sum(hyperbolic(GF2))
    pairs = symplectic_basis(double)
    assert len(pairs) == 2
    with pytest.raises(DegenerateBilinearError):
        symplectic_basis(QuadraticForm(GF2, [[1, 0], [0, 1]]))
    with pytest.raises(DegenerateBilinearError):
        symplectic_basis(QuadraticForm(GF2, [[0, 1, 0], [0, 0, 0], [0, 0, 1]]))


def test_arf_documented_values():
    assert arf_invariant(hyperbolic(GF2)) == Arf.finite(0)
    assert arf_invariant(elliptic(GF2)) == Arf.finite(1)
    assert arf_invariant(elliptic(GF4)) == Arf.finite(2)
    assert arf_invariant(QuadraticForm(GF2, [[1, 0], [0, 1]])).is_infinity
    assert GF2.arf_normalize(arf_invariant(elliptic(GF2))) == CLASS_E
    sigma2 = hyperbolic(GF2).direct_sum(hyperbolic(GF2))
    assert arf_invariant(sigma2) == Arf.finite(0)


def test_arf_error_cases():
    with pytest.raises(DegenerateFormError):
        arf_invariant(QuadraticForm(GF2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(DegenerateBilinearError):
        arf_invariant(QuadraticForm(GF2, [[0, 1, 0], [0, 0, 0], [0, 0, 1]]))


@pytest.mark.parametrize("field", [GF2, GF4])
def test_arf_basis_independent_dim2(field):
    forms = [QuadraticForm(field, [[a, b], [0, c]])
             for a in field.elements() for b in field.elements()
             for c in field.elements() if b != 0]
    mats = all_invertible(field, 2)
    for form in forms[:8]:
        cls = field.arf_normalize(arf_invariant(form))
        for t in mats:
            assert field.arf_normalize(arf_invariant(form.transform(t))) == cls


@pytest.mark.parametrize("field", [GF2, GF4])
def test_arf_basis_independent_dim4_randomized(field):
    rng = random.Random(99)
    form = elliptic(field).direct_sum(hyperbolic(field))
    cls = field.arf_normalize(arf_invariant(form))
    seen = 0
    while seen < 1000:
        m = tuple(tuple(rng.randrange(field.order) for _ in range(4))
                  for _ in range(4))
        if linalg.mat_inv(field, m) is None:
            continue
        seen += 1
        assert field.arf_normalize(arf_invariant(form.transform(m))) == cls


def test_direct_sum_additivity_gf2():
    nondeg = [QuadraticForm(GF2, [[a, 1], [0, c]])
              for a in GF2.elements() for c in GF2.elements()]
    for f1 in nondeg:
        for f2 in nondeg:
            a1 = arf_invariant(f1).value
            a2 = arf_invariant(f2).value
            total = arf_invariant(f1.direct_sum(f2)).value
            assert GF2.trace(total) == GF2.trace(a1 ^ a2)


def test_spaces_isomorphic_documented():
    h = hyperbolic(GF2)
    permuted = QuadraticForm(GF2, [[0, 1], [0, 0]]).transform(((0, 1), (1, 0)))
    w = spaces_isomorphic(h, permuted)
    assert w is not None
    assert spaces_isomorphic(h, elliptic(GF2)) is None
    f1 = QuadraticForm(GF4, [[1, 1], [0, 2]])
    f2 = QuadraticForm(GF4, [[1, 1], [0, 3]])
    assert GF4.trace(2 ^ 3) == 0
    assert spaces_isomorphic(f1, f2) is not None


@pytest.mark.parametrize("field", [GF2, GF4])
def test_spaces_isomorphic_iff_arf_class(field):
    nondeg = [QuadraticForm(field, [[a, b], [0, c]])
              for a in field.elements() for b in field.elements()
              for c in field.elements() if b != 0]
    classes = {f: field.arf_normalize(arf_invariant(f)) for f in nondeg}
    for f1 in nondeg:
        for f2 in nondeg:
            w = spaces_isomorphic(f1, f2)
            if classes[f1] == classes[f2]:
                assert w is not None
                # witness property on a basis and its sum
                for v in ((1, 0), (0, 1), (1, 1)):
                    assert f2.q(linalg.mat_vec(field, w, v)) == f1.q(v)
            else:
                assert w is None


def _seeded_pairs(field, dim, count, seed):
    rng = random.Random(seed)

    def rand_form():
        return QuadraticForm(field, [[rng.randrange(field.order) if j >= i
                                      else 0 for j in range(dim)]
                                     for i in range(dim)])

    return [(rand_form(), rand_form()) for _ in range(count)]


def _every_pair(field, dims):
    for dim in dims:
        forms = list(every_form(field, dim))
        yield from itertools.product(forms, forms)


@pytest.mark.parametrize("pairs", [
    lambda: _every_pair(GF2, (1, 2, 3)),
    lambda: _every_pair(GF4, (1, 2)),
    lambda: _seeded_pairs(GF4, 3, 3000, 3),
    lambda: _seeded_pairs(GF2, 4, 3000, 4),
], ids=["GF2 dim<=3", "GF4 dim<=2", "GF4 dim 3 seeded", "GF2 dim 4 seeded"])
def test_spaces_isomorphic_early_none_agrees_with_the_search(
        pairs, monkeypatch):
    # spaces_isomorphic answers None at once when dim ker B, the radical
    # dimension or (Q zero on ker B) the Arf trace differ; the search
    # must then find no isometry either.  Where they agree it finds one,
    # so no search is run to exhaustion.  A returned T is the search's
    # own first match, so only the None answers are checked.
    search = quadspace._isometry_search
    searched = []

    def spy(*args):
        searched.append(args)
        return search(*args)

    monkeypatch.setattr(quadspace, "_isometry_search", spy)
    answered = 0
    for f1, f2 in pairs():
        del searched[:]
        if spaces_isomorphic(f1, f2) is None:
            answered += 1
            assert searched == []
            assert next(search(f1, f2, []), None) is None
    assert answered


def test_spaces_isomorphic_answers_differing_invariants_without_search(
        monkeypatch):
    def never(*args):
        raise AssertionError("searched although the invariants differ")

    h = hyperbolic(GF4)
    hh = h.direct_sum(h)
    he = h.direct_sum(elliptic(GF4))
    null_plane = QuadraticForm(GF4, [[0, 0], [0, 0]])
    squares = QuadraticForm(GF2, [[1, 0], [0, 1]])  # B = 0, radical dim 1
    zero = QuadraticForm(GF2, [[0, 0], [0, 0]])
    monkeypatch.setattr(quadspace, "_isometry_search", never)
    assert spaces_isomorphic(hh.direct_sum(h), he.direct_sum(h)) is None
    # the same Arf traces 0 and 1 on the quotient by a radical plane
    assert spaces_isomorphic(hh.direct_sum(null_plane),
                             he.direct_sum(null_plane)) is None
    assert spaces_isomorphic(hyperbolic(GF2), squares) is None  # ker B
    assert spaces_isomorphic(zero, squares) is None  # radical dimension


def test_enumerate_isometries_documented():
    assert enumerate_isometries(elliptic(GF2)).order == 6
    assert enumerate_isometries(hyperbolic(GF2)).order == 2
    fixed_all = enumerate_isometries(elliptic(GF2), fixed=[(1, 0), (0, 1)])
    assert fixed_all.order == 1
    with pytest.raises(TooLargeError):
        enumerate_isometries(QuadraticForm(GF2Field(8), [[0, 1], [0, 0]]))


def test_every_isometry_search_refuses_before_any_work(monkeypatch):
    field = GF2Field(7)  # n*dim = 14 on a plane
    h = hyperbolic(field)

    def never(*args):
        raise AssertionError("an isometry search ran past its guard")

    monkeypatch.setattr(linalg, "extend_to_basis", never)
    for search in (lambda: spaces_isomorphic(h, elliptic(field)),
                   lambda: enumerate_isometries(h),
                   lambda: enumerate_isometries(h, fixed=[(1, 0)])):
        with pytest.raises(TooLargeError,
                           match=r"n\*dim = 14 exceeds enumeration guard 12"):
            search()


def test_enumerate_isometries_refuses_an_order_past_its_guard(monkeypatch):
    h2, e2 = hyperbolic(GF2), elliptic(GF2)
    h4 = hyperbolic(GF4)
    hhh = h4.direct_sum(h4).direct_sum(h4)  # n*dim = 12 passes isometry_guard

    def never(*args):
        raise AssertionError("an isometry search ran past its guard")

    monkeypatch.setattr(linalg, "extend_to_basis", never)
    with pytest.raises(TooLargeError, match="order 1974067200 exceeds"
                       " enumeration guard 100000"):
        enumerate_isometries(hhh)
    monkeypatch.undo()
    # the guard reads the closed-form order: 72 for H + H over GF(2) and
    # 6 for H + <1>; a radical, a fixed vector or the plane builder
    # leaves it out
    monkeypatch.setattr(quadspace, "ISOMETRY_ORDER_GUARD", 6)
    with pytest.raises(TooLargeError, match="order 72 exceeds"):
        enumerate_isometries(h2.direct_sum(h2))
    assert isometry_order(h2.direct_sum(QuadraticForm(GF2, [[1]]))) == 6
    assert enumerate_isometries(
        h2.direct_sum(QuadraticForm(GF2, [[1]]))).order == 6
    assert enumerate_isometries(e2.direct_sum(e2),
                                fixed=[(1, 0, 0, 0)]).order > 6
    assert enumerate_isometries(
        h2.direct_sum(QuadraticForm(GF2, [[0, 0], [0, 0]]))).order > 6
    assert enumerate_isometries(elliptic(GF4)).order == 2 * (4 + 1)


def test_first_found_searches_stop_at_their_first_match(monkeypatch):
    # spaces_isomorphic takes the first matrix of the search, so it draws
    # fewer candidates than enumerating every one
    drawn = []
    level_set = quadspace._level_set

    def counting(*args):
        for v in level_set(*args):
            drawn.append(v)
            yield v

    monkeypatch.setattr(quadspace, "_level_set", counting)
    form = hyperbolic(GF2).direct_sum(elliptic(GF2))
    found = spaces_isomorphic(form, form)
    one = len(drawn)
    del drawn[:]
    elements = enumerate_isometries(form).elements
    assert len(elements) > 1
    assert found in elements
    assert 0 < one < len(drawn)


def test_ambient_matrix_needs_a_lift_and_an_element():
    group = enumerate_isometries(elliptic(GF2))
    with pytest.raises(NotDefinedError, match="no ambient realization"):
        group.ambient_matrix(group.elements[0])
    lifted = quadspace.IsomGroup(GF2, group.elements, form=group.form,
                                 lift=lambda m: m)
    assert lifted.ambient_matrix(group.elements[1]) == group.elements[1]
    with pytest.raises(NotDefinedError, match="not an element"):
        lifted.ambient_matrix(((1, 1), (1, 1)))
    # a label of the full pair group is outside its oriented subgroup
    pairs = ort_group(GF4, Arf.infinity())
    plus = quadspace.IsomGroup(GF4, [(a, 0) for a in range(4)],
                               kind=DEGENERATE_PAIR, lift=lambda x: x)
    assert (3, 1) in pairs and (3, 1) not in plus
    with pytest.raises(NotDefinedError, match="not an element"):
        plus.ambient_matrix((3, 1))
    with pytest.raises(NotDefinedError, match="no ambient realization"):
        pairs.ambient_matrix((3, 1))


def test_membership_across_kinds_is_false():
    pairs = ort_group(GF2Field(3), Arf.infinity())
    swap = ((0, 1), (1, 0))
    assert swap not in pairs
    orthogonal = ort_group(GF2Field(3), Arf.finite(0))
    assert swap in orthogonal and (3, 1) not in orthogonal
    lifted = quadspace.IsomGroup(pairs.field, pairs.elements,
                                 kind=DEGENERATE_PAIR, lift=lambda x: x)
    with pytest.raises(NotDefinedError, match="not an element"):
        lifted.ambient_matrix(swap)
    lifted = quadspace.IsomGroup(orthogonal.field, orthogonal.elements,
                                 form=orthogonal.form, lift=lambda m: m)
    with pytest.raises(NotDefinedError, match="not an element"):
        lifted.ambient_matrix((3, 1))


def test_enumerate_isometries_group_axioms():
    groups = [enumerate_isometries(form)
              for form in (elliptic(GF2), hyperbolic(GF4),
                           hyperbolic(GF2).direct_sum(elliptic(GF2)))]
    groups += [ort_group(GF4, Arf.infinity()),
               ort_plus(ort_group(GF4, Arf.finite(GF4.arf_e())))]
    for group in groups:
        elems = set(group.elements)
        assert group.elements == tuple(sorted(elems))
        assert group.identity() in elems
        for a in elems:
            assert group.inv(a) in elems
            assert group.mul(a, group.inv(a)) == group.identity()
            for b in elems:
                assert group.mul(a, b) in elems
        if group.kind == DEGENERATE_PAIR:
            continue
        # each matrix really preserves the group's form
        form = group.form
        for m in elems:
            for v in itertools.product(form.field.elements(), repeat=form.dim):
                assert form.q(linalg.mat_vec(form.field, m, v)) == form.q(v)


class CountingElements(tuple):
    """A sorted element tuple that counts item reads and refuses to be
    iterated whole."""

    reads = 0

    def __getitem__(self, i):
        CountingElements.reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        raise AssertionError("membership walked every element")


def test_membership_is_a_binary_search():
    form = hyperbolic(GF2).direct_sum(elliptic(GF2))
    # the third group lists its elements on first use; the assignment
    # below replaces that listing as it replaces a given one
    groups = [enumerate_isometries(form), ort_group(GF4, Arf.infinity()),
              quadspace.IsomGroup(GF2, lambda: enumerate_isometries(form),
                                  form=form, order=120)]
    for group in groups:
        elements = group.elements
        others = {group.mul(a, b) for a in elements for b in elements}
        if group.kind == DEGENERATE_PAIR:
            others |= {(x, 2) for x, _ in elements} | {(-1, 0)}
        else:
            others |= {tuple(tuple(x ^ 1 for x in row) for row in m)
                       for m in elements}
        group.elements = CountingElements(elements)
        for m in sorted(others):
            CountingElements.reads = 0
            assert (m in group) == (m in set(elements))
            # bisect reads about log2 |G| items, then one to compare
            assert CountingElements.reads <= len(elements).bit_length() + 1
    assert len(groups[0]) == 120 and len(groups[1]) == 8


def test_a_group_of_known_order_lists_its_elements_on_first_use():
    form = hyperbolic(GF2).direct_sum(elliptic(GF2))
    searched = enumerate_isometries(form).elements
    calls = []

    def listing():
        calls.append(len(calls))
        return reversed(searched)

    group = quadspace.IsomGroup(GF2, listing, form=form, order=120)
    assert (group.order, len(group), calls) == (120, 120, [])
    assert "order=120" in repr(group) and calls == []
    assert searched[5] in group and calls == [0]
    # listed once, sorted, and kept
    assert group.elements == searched and list(group) == list(searched)
    assert group.identity() in group and calls == [0]
    # a listing whose number of distinct elements disagrees with the known
    # order is refused, and not kept, so the next read lists again
    for listed, order in ((searched[1:], 120), (searched + searched, 119)):
        calls = []
        wrong = quadspace.IsomGroup(
            GF2, lambda listed=listed: calls.append(1) or listed, form=form,
            order=order)
        for _ in range(2):
            with pytest.raises(ContractViolationError,
                               match="^listed %d elements of a group of"
                                     " order %d$" % (len(set(listed)), order)):
                wrong.elements
        assert len(calls) == 2


def test_enumerate_isometries_fixing_subset():
    e = elliptic(GF2)
    grp = enumerate_isometries(e, fixed=[(1, 1)])
    assert grp.order == 2
    for m in grp:
        assert linalg.mat_vec(GF2, m, (1, 1)) == (1, 1)


def test_gf4_hyperbolic_group_order():
    assert enumerate_isometries(hyperbolic(GF4)).order == 2 * (4 - 1)


def test_subspace_canonical():
    s1 = Subspace(GF2, 3, [(1, 1, 0), (0, 1, 1)])
    s2 = Subspace(GF2, 3, [(1, 0, 1), (0, 1, 1)])
    assert s1 == s2 and s1.dim == 2
    assert s1.contains((1, 0, 1))
    assert not s1.contains((1, 0, 0))


def test_subspace_coords():
    s = Subspace(GF4, 4, [(1, 2, 0, 3), (0, 1, 1, 1)])
    for a, b in itertools.product(GF4.elements(), repeat=2):
        v = linalg.combine(GF4, (a, b), s.basis)
        assert s.coords(v) == (a, b)
        assert s.contains(v)
    assert s.coords((0, 0, 1, 0)) is None
    assert not s.contains((0, 0, 1, 0))
    zero = Subspace(GF4, 3, [])
    assert zero.coords((0, 0, 0)) == ()
    assert zero.coords((0, 2, 0)) is None


def test_form_json_roundtrip():
    f = QuadraticForm(GF4, [[1, 2], [0, 3]])
    doc = f.to_json()
    assert doc["coeffs"][1][0] == 0
    assert QuadraticForm.from_json(doc) == f


def test_form_from_json_rejects_malformed_documents():
    good = QuadraticForm(GF4, [[1, 2], [0, 3]]).to_json()
    for doc in ({}, [1, 2], dict(good, coeffs=5), dict(good, dim="2"),
                dict(good, field=[2, 7]), dict(good, field={"n": 2})):
        with pytest.raises(MalformedDocumentError):
            QuadraticForm.from_json(doc)


def test_form_rejects_bool_coefficients_and_coordinates():
    # JSON true/false load as bool, a subclass of int
    good = QuadraticForm(GF4, [[1, 2], [0, 3]]).to_json()
    for doc in (dict(good, coeffs=[[True, 2], [0, 3]]), dict(good, dim=True),
                dict(good, field={"n": True, "modulus": 3})):
        with pytest.raises(MalformedDocumentError):
            QuadraticForm.from_json(doc)
    with pytest.raises(ValueError):
        QuadraticForm(GF4, [[True, 2], [0, 3]])
    f = QuadraticForm.from_json(good)
    with pytest.raises(ValueError):
        f.q((True, 0))
    with pytest.raises(ValueError):
        f.b((1, 0), (0, False))


# -- properties of the evaluation paths on random forms ---------------------

FIELDS = {n: GF2Field(n) for n in range(1, MAX_DEGREE + 1)}
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def largest_log_element(field):
    """g^(q-2): the element whose log is largest, so the form kernels
    read exp at up to 3(q - 2) when every factor is this one."""
    return field._exp[field.order - 2]


@st.composite
def form_and_vectors(draw, n=None):
    """A random upper-triangular form (dim 1..6, over GF(2^n), n drawn
    from 1..16 unless given) and two vectors.  Over table fields the
    entries mix in the element of largest log."""
    field = FIELDS[draw(st.integers(1, MAX_DEGREE)) if n is None else n]
    dim = draw(st.integers(1, 6))
    elem = st.integers(0, field.order - 1)
    if field._exp is not None:
        elem = st.one_of(elem, st.just(largest_log_element(field)))
    coeffs = [[draw(elem) if j >= i else 0 for j in range(dim)]
              for i in range(dim)]
    vec = st.tuples(*[elem] * dim)
    return QuadraticForm(field, coeffs), draw(vec), draw(vec)


# the references multiply by shift-and-add only: neither the log/exp
# tables nor field.mul, which the kernels may use

def raw_q(form, v):
    mul = form.field._shift_mul
    acc = 0
    for i in range(form.dim):
        for j in range(i, form.dim):
            acc ^= mul(form.coeffs[i][j], mul(v[i], v[j]))
    return acc


def raw_b(form, u, v):
    mul = form.field._shift_mul
    acc = 0
    for i in range(form.dim):
        for j in range(i + 1, form.dim):
            acc ^= mul(form.coeffs[i][j], mul(u[i], v[j]) ^ mul(u[j], v[i]))
    return acc


@settings(PROPERTY, max_examples=40)
@given(st.data())
def test_q_matches_the_raw_double_sum(data):
    # every degree, so both kernel paths: tables at n <= 8, mul above
    for n in FIELDS:
        form, u, v = data.draw(form_and_vectors(n))
        for w in (u, v):
            assert form.q(w) == form._q(w) == raw_q(form, w)
        assert form.b(u, v) == form._b(u, v) == raw_b(form, u, v)
        assert form.restrict([u, v]).coeffs == (
            (raw_q(form, u), raw_b(form, u, v)), (0, raw_q(form, v)))


@pytest.mark.parametrize("n", range(1, TABLE_DEGREE + 1))
def test_one_term_forms_match_the_reference_at_every_table_index(n):
    # every (c, x, y) at n <= 3; above that, triples from 0, 1 and a few
    # elements of largest log, whose logs sum to the last index 3(q - 2)
    f = FIELDS[n]
    top = largest_log_element(f)
    if n <= 3:
        values = list(f.elements())
    else:
        values = [0, 1, top, f.mul(top, top), f.order - 1, f.order // 2 + 1]
    mul = f._shift_mul
    for c, x, y in itertools.product(values, repeat=3):
        square = QuadraticForm(f, [[c]])
        assert square._q((x,)) == square.q((x,)) == mul(c, mul(x, x))
        cross = QuadraticForm(f, [[0, c], [0, 0]])
        cxy = mul(c, mul(x, y))
        assert cross._q((x, y)) == cross.q((x, y)) == cxy
        assert cross._b((x, 0), (0, y)) == cross._b((0, x), (y, 0)) == cxy
        assert cross.b((x, 1), (1, y)) == cxy ^ c
        assert cross.restrict([(x, 0), (0, y)]).coeffs == ((0, cxy), (0, 0))


@PROPERTY
@given(form_and_vectors())
def test_b_is_the_polarization_of_q(case):
    form, u, v = case
    assert form.b(u, v) == form.q(linalg.vec_add(u, v)) ^ form.q(u) ^ form.q(v)


@PROPERTY
@given(form_and_vectors())
def test_unchecked_paths_agree_on_valid_input(case):
    form, u, v = case
    assert form._q(u) == form.q(u)
    assert form._b(u, v) == form.b(u, v)


@PROPERTY
@given(form_and_vectors(), st.data())
def test_public_paths_reject_bad_vectors(case, data):
    form, u, v = case
    i = data.draw(st.integers(0, form.dim - 1))
    for bad in (form.field.order, -1, 1.0, "1", None):
        w = u[:i] + (bad,) + u[i + 1:]
        with pytest.raises(ValueError):
            form.q(w)
        with pytest.raises(ValueError):
            form.b(w, v)
        with pytest.raises(ValueError):
            form.b(v, w)
    for wrong in (u + (0,), u[:-1]):
        with pytest.raises(DimMismatchError):
            form.q(wrong)
        with pytest.raises(DimMismatchError):
            form.b(v, wrong)


# -- the boundary of restrict, transform and arf_invariant --------------------

def test_restrict_and_transform_check_their_input():
    form = QuadraticForm(GF4, [[1, 1, 0], [0, 0, 2], [0, 0, 3]])
    for bad in (4, -1, 1.0, "1", None, True, False):
        with pytest.raises(ValueError) as exc:
            form.restrict([(1, 0, 2), (0, bad, 1)])
        assert type(exc.value) is ValueError  # the field's own error
        # the columns of t are the new basis vectors
        with pytest.raises(ValueError) as exc:
            form.transform(((1, 0), (0, bad), (2, 1)))
        assert type(exc.value) is ValueError
    for wrong in ([(1, 0)], [(1, 0, 2), (0, 1, 1, 0)]):
        with pytest.raises(DimMismatchError):
            form.restrict(wrong)
    with pytest.raises(DimMismatchError):
        form.transform(((1, 0), (0, 1)))
    with pytest.raises(DimMismatchError):
        form.transform(((1, 0), (0, 1), (0, 0), (1, 1)))


def test_restrict_checks_no_coefficient_after_its_basis(monkeypatch):
    f = GF2Field(3)
    form = QuadraticForm(f, [[1, 3, 0, 5], [0, 0, 7, 2],
                             [0, 0, 6, 1], [0, 0, 0, 4]])
    basis = [(1, 2, 3, 4), (0, 5, 6, 7), (7, 0, 1, 2), (3, 3, 0, 1)]
    checks = []
    original = GF2Field.check

    def counting(self, a):
        checks.append(a)
        return original(self, a)

    monkeypatch.setattr(GF2Field, "check", counting)
    moved = form.restrict(basis)
    # the basis holds valid elements, so check_vec never falls back to
    # check, and the coefficients are not validated again
    assert checks == []
    monkeypatch.undo()
    assert moved == QuadraticForm(f, [list(r) for r in moved.coeffs])
    assert moved.coeffs == tuple(
        tuple(0 if j < i else form.q(basis[i]) if j == i
              else form.b(basis[i], basis[j]) for j in range(4))
        for i in range(4))


@PROPERTY
@given(form_and_vectors())
def test_restrict_matches_raw_evaluation(case):
    form, u, v = case
    b_uv = raw_q(form, linalg.vec_add(u, v)) ^ raw_q(form, u) ^ raw_q(form, v)
    assert form.restrict([u, v]).coeffs == ((raw_q(form, u), b_uv),
                                            (0, raw_q(form, v)))
    # transform takes the same vectors as the columns of a matrix
    assert form.transform(linalg.from_columns([u, v])) == \
        form.restrict([u, v])


@pytest.mark.parametrize("field", [GF2, GF4])
def test_arf_of_every_nondegenerate_plane_is_the_raw_formula(field):
    # Q = a x^2 + b xy + c y^2 with b != 0 pairs e = (1, 0) with
    # f = (0, 1/b), so Arf = Q(e) Q(f) = a c / b^2
    for a, b, c in itertools.product(field.elements(), repeat=3):
        if not b:
            continue
        raw = field.mul(field.mul(a, c), field.inv(field.mul(b, b)))
        form = QuadraticForm(field, [[a, b], [0, c]])
        assert arf_invariant(form) == Arf.finite(raw)


# -- arf_invariant against the vectors of symplectic_basis ------------------

def reference_arf(form):
    """The Arf value summed over the vectors of symplectic_basis, raising
    the errors arf_invariant must raise, with the same messages."""
    if form.dim == 2 and not any(any(row) for row in form.gram()):
        return Arf.infinity()
    try:
        if form.dim % 2:
            raise DegenerateBilinearError(
                "odd dimension: no symplectic decomposition")
        pairs = symplectic_basis(form)
    except DegenerateBilinearError:
        if form.radical().dim > 0:
            raise DegenerateFormError(
                "form has a nontrivial radical") from None
        raise
    acc = 0
    for e, f in pairs:
        acc ^= form.field.mul(form._q(e), form._q(f))
    return Arf.finite(acc)


def arf_outcome(fn, form):
    """The Arf value, or the type and message of the error raised."""
    try:
        return fn(form)
    except Char2ConfError as exc:
        return type(exc), str(exc)


def every_form(field, dim):
    cells = [(i, j) for i in range(dim) for j in range(i, dim)]
    for values in itertools.product(field.elements(), repeat=len(cells)):
        coeffs = [[0] * dim for _ in range(dim)]
        for (i, j), x in zip(cells, values):
            coeffs[i][j] = x
        yield QuadraticForm(field, coeffs)


@pytest.mark.parametrize("n,dim", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3),
                                   (1, 4)])
def test_arf_is_the_symplectic_basis_value_on_every_small_form(n, dim):
    for form in every_form(GF2Field(n), dim):
        assert arf_outcome(arf_invariant, form) == \
            arf_outcome(reference_arf, form)


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_arf_is_the_symplectic_basis_value_on_seeded_forms(n):
    # above n = 8 the field multiplies by shift-and-add
    field = GF2Field(n)
    rng = random.Random(7000 + n)
    seen = set()
    for dim in range(4, 9):
        for _ in range(60):
            coeffs = [[rng.randrange(field.order)
                       if j >= i and rng.random() < 0.7 else 0
                       for j in range(dim)] for i in range(dim)]
            if rng.random() < 0.25:
                # x_k in no term: e_k is in the radical
                k = rng.randrange(dim)
                for i in range(dim):
                    coeffs[i][k] = coeffs[k][i] = 0
            form = QuadraticForm(field, coeffs)
            got = arf_outcome(arf_invariant, form)
            assert got == arf_outcome(reference_arf, form)
            seen.add(got[0] if isinstance(got, tuple) else Arf)
    assert seen == {Arf, DegenerateBilinearError, DegenerateFormError}


# -- the isometry search against a raw scan of GL(V) --------------------------

def raw_combination(field, dim, coeffs, vectors):
    acc = [0] * dim
    for c, v in zip(coeffs, vectors):
        for t, x in enumerate(v):
            acc[t] ^= field.mul(c, x)
    return tuple(acc)


def raw_isometries(form):
    """Every invertible matrix M with Q(M v) = Q(v) for all v, by a raw
    scan: column i runs over every vector v with Q(v) = Q(e_i), and M is
    kept when it is invertible and Q(M (e_i + e_j)) = Q(e_i + e_j) for
    every i < j.  That suffices: Q(sum x_i e_i) = sum x_i^2 Q(e_i) +
    sum_{i<j} x_i x_j B(e_i, e_j), and B(e_i, e_j) = Q(e_i + e_j) + Q(e_i)
    + Q(e_j)."""
    field, dim = form.field, form.dim
    vectors = list(itertools.product(field.elements(), repeat=dim))
    level = {}
    for v in vectors:
        level.setdefault(raw_q(form, v), []).append(v)
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    found = []
    for cols in itertools.product(*[level.get(raw_q(form, e), [])
                                    for e in unit]):
        if any(raw_q(form, tuple(x ^ y for x, y in zip(cols[i], cols[j])))
               != raw_q(form, tuple(x ^ y for x, y in zip(unit[i], unit[j])))
               for i, j in pairs):
            continue
        m = tuple(tuple(col[i] for col in cols) for i in range(dim))
        if linalg.mat_inv(field, m) is not None:
            found.append(m)
    return found


def anchor_sets(field, dim):
    """Fixed-vector lists for the cross-check: none, each nonzero vector
    over GF(2) (a few chosen ones above it), every pair of distinct
    nonzero vectors in dimension 3, and a zero and a repeated anchor."""
    nonzero = [v for v in itertools.product(field.elements(), repeat=dim)
               if any(v)]
    if field.n > 1:
        nonzero = [(1, 0), (0, 1), (1, 1), (1, field.order - 1)]
    sets = [[]] + [[v] for v in nonzero]
    if dim == 3:
        sets += [list(pair) for pair in itertools.combinations(nonzero, 2)]
    return sets + [[(0,) * dim], [nonzero[-1], nonzero[-1]]]


@pytest.mark.parametrize("n,dim", [(1, 1), (1, 2), (1, 3), (2, 2), (3, 2)])
def test_enumerate_isometries_matches_a_raw_scan(n, dim):
    # every form of the shape, so B = 0 planes, forms whose last basis
    # vector has Q = 0 (the first fibre's a = 0) and nontrivial radicals
    # all occur; the element tuples must agree exactly
    field = GF2Field(n)
    edges = set()
    for form in every_form(field, dim):
        if dim == 2 and not form.coeffs[0][1]:
            edges.add("B = 0")
        if not form.coeffs[-1][-1]:
            edges.add("Q(e_last) = 0")
        if form.radical().dim:
            edges.add("radical")
        raw = raw_isometries(form)
        for fixed in anchor_sets(field, dim):
            want = [m for m in raw
                    if all(raw_combination(field, dim, a, linalg.transpose(m))
                           == a for a in fixed)]
            got = enumerate_isometries(form, fixed=fixed or None)
            assert got.elements == tuple(sorted(want))
    assert edges == {"Q(e_last) = 0", "radical"} | (
        {"B = 0"} if dim == 2 else set())


# -- plane groups in closed form ---------------------------------------------

def plane_forms(field):
    """Every plane form a x^2 + b xy + c y^2 with B non-degenerate."""
    return [QuadraticForm(field, [[a, b], [0, c]])
            for a in field.elements() for b in range(1, field.order)
            for c in field.elements()]


def preserves_plane_form(form, m):
    (u0, v0), (u1, v1) = m
    u, v = (u0, u1), (v0, v1)
    (a, b), (_, c) = form.coeffs
    return (form.q(u), form.q(v), form.b(u, v)) == (a, c, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plane_builder_matches_the_search_on_every_small_plane(n):
    for form in plane_forms(GF2Field(n)):
        got = sorted(quadspace._plane_isometries(form))
        want = sorted(quadspace._isometry_search(form, form, []))
        assert got == want
        assert enumerate_isometries(form).elements == tuple(want)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_plane_builder_matches_the_search_on_seeded_planes(n):
    field = GF2Field(n)
    rng = random.Random(1900 + n)
    classes = set()
    for _ in range(6):
        form = QuadraticForm(field, [[rng.randrange(field.order),
                                      rng.randrange(1, field.order)],
                                     [0, rng.randrange(field.order)]])
        classes.add(field.trace(arf_invariant(form).value))
        got = sorted(quadspace._plane_isometries(form))
        assert got == sorted(quadspace._isometry_search(form, form, []))
    # the hyperbolic model x*y has Q(e1) = 0, the first column's edge case
    xy = QuadraticForm(field, [[0, 1], [0, 0]])
    assert sorted(quadspace._plane_isometries(xy)) \
        == sorted(quadspace._isometry_search(xy, xy, []))
    assert classes == {0, 1}


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 12])
def test_plane_builder_beyond_the_guard(n):
    # enumerate_isometries refuses planes at n >= 7; the builder itself
    # gives a group of the closed-form order there, element by element
    # an isometry (without tables from n = 9 on)
    field = GF2Field(n)
    rng = random.Random(1950 + n)
    form = QuadraticForm(field, [[rng.randrange(1, field.order),
                                  rng.randrange(1, field.order)],
                                 [0, rng.randrange(1, field.order)]])
    elements = set(quadspace._plane_isometries(form))
    assert len(elements) == isometry_order(form)
    assert all(preserves_plane_form(form, m) for m in elements)
    with pytest.raises(TooLargeError):
        enumerate_isometries(form)


# -- carriers over different fields -------------------------------------------

def test_field_mismatch_is_refused():
    with pytest.raises(FieldMismatchError):
        hyperbolic(GF2).direct_sum(hyperbolic(GF4))
    with pytest.raises(FieldMismatchError):
        spaces_isomorphic(hyperbolic(GF2), hyperbolic(GF4))


# -- |O(Q)| by closed form against the search --------------------------------

@pytest.mark.parametrize("n,dim", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1),
                                   (2, 2), (3, 1), (3, 2)])
def test_isometry_order_matches_enumeration_on_every_small_form(n, dim):
    checked = 0
    for form in every_form(GF2Field(n), dim):
        if form.radical().dim:
            continue
        assert isometry_order(form) == enumerate_isometries(form).order
        checked += 1
    assert checked


@pytest.mark.parametrize("n,dim,count", [(2, 3, 40), (3, 3, 6), (2, 4, 2)])
def test_isometry_order_matches_enumeration_on_seeded_forms(n, dim, count):
    # a full sweep of dim 3 over GF(4) is 3,024 forms; even dimensions
    # take one form of each Arf class, so both signs of eps are checked
    field = GF2Field(n)
    rng = random.Random(8100 + 10 * n + dim)
    classes = set()
    checked = 0
    while checked < count:
        form = QuadraticForm(field, [[rng.randrange(field.order) if j >= i
                                      else 0 for j in range(dim)]
                                     for i in range(dim)])
        if form.radical().dim:
            continue
        if dim % 2 == 0:
            cls = field.arf_normalize(arf_invariant(form))
            if cls in classes:
                continue
            classes.add(cls)
        assert isometry_order(form) == enumerate_isometries(form).order
        checked += 1


@pytest.mark.parametrize("n,dim", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1),
                                   (2, 2), (2, 3)])
def test_isometry_order_refuses_exactly_the_forms_with_a_radical(n, dim):
    # the reduction's radical dimension against the nullspace of radical()
    for form in every_form(GF2Field(n), dim):
        radical_dim = form.radical().dim
        assert quadspace._symplectic_reduction(form)[3] == radical_dim
        if radical_dim:
            with pytest.raises(DegenerateFormError,
                               match="form has a nontrivial radical"):
                isometry_order(form)
        else:
            assert isometry_order(form) > 0


def test_zero_dimensional_form_has_the_trivial_group():
    # the 0x0 matrix () is the one isometry, as isometry_order says
    for field in (GF2, GF4):
        form = QuadraticForm(field, [])
        group = enumerate_isometries(form)
        assert group.elements == ((),) and group.identity() == ()
        assert group.order == isometry_order(form) == 1
        assert spaces_isomorphic(form, form) == ()


def test_isometry_order_refuses_a_radical():
    squares = QuadraticForm(GF2, [[1, 0], [0, 1]])  # B = 0, Q(1, 1) = 0
    singular = QuadraticForm(GF4, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    for form in (squares, singular):
        assert form.radical().dim == 1
        with pytest.raises(DegenerateFormError,
                           match="form has a nontrivial radical"):
            isometry_order(form)


# -- first-found order of the isometry search, pinned ------------------------

def first_found_cases():
    """(form, other) for seeded forms of dim <= 4 over GF(2) and dim <= 3
    over GF(4): a form and a random transform of it or, three times in
    ten, another random form.  The pairs were pinned from a stream that
    also drew, after each six pairs, six forms with a random isometry and
    1..dim random vectors each; those draws are kept so the pairs keep
    their values."""
    rng = random.Random(4321)

    def rand_form(field, dim):
        return QuadraticForm(field, [[rng.randrange(field.order) if j >= i
                                      else 0 for j in range(dim)]
                                     for i in range(dim)])

    def rand_invertible(field, dim):
        while True:
            m = tuple(tuple(rng.randrange(field.order) for _ in range(dim))
                      for _ in range(dim))
            if linalg.mat_inv(field, m) is not None:
                return m

    for field, dims in ((GF2, (1, 2, 3, 4)), (GF4, (1, 2, 3))):
        for dim in dims:
            for _ in range(6):
                f1 = rand_form(field, dim)
                f2 = (f1.transform(rand_invertible(field, dim))
                      if rng.random() < 0.7 else rand_form(field, dim))
                yield f1, f2
            for _ in range(6):
                form = rand_form(field, dim)
                rng.choice(enumerate_isometries(form).elements)
                for _ in range(rng.randrange(1, dim + 1) * dim):
                    rng.randrange(field.order)


def _rows_key(rows):
    return "/".join(",".join(map(str, row)) for row in rows)


# recorded before the search kept its pairing system in echelon form and
# solved Q per fibre; degree:form>other, then the first matrix found (rows
# joined by "/") or "none"
PINNED_FIRST_FOUND = """
iso 1:1>1 1
iso 1:0>0 1
iso 1:0>0 1
iso 1:1>1 1
iso 1:1>1 1
iso 1:0>0 1
iso 1:1,1/0,1>1,1/0,0 none
iso 1:0,1/0,0>0,1/0,0 0,1/1,0
iso 1:1,1/0,0>1,1/0,0 1,0/0,1
iso 1:1,0/0,0>0,0/0,1 0,1/1,0
iso 1:0,0/0,1>1,0/0,0 0,1/1,0
iso 1:0,0/0,0>0,0/0,0 0,1/1,0
iso 1:1,0,1/0,1,1/0,0,0>0,0,1/0,1,0/0,0,0 none
iso 1:1,1,0/0,1,1/0,0,0>1,0,1/0,0,1/0,0,0 0,1,1/1,0,0/1,0,1
iso 1:0,1,1/0,0,0/0,0,1>0,1,0/0,1,0/0,0,1 0,1,1/1,0,0/1,0,1
iso 1:0,1,0/0,0,0/0,0,0>0,1,1/0,0,1/0,0,1 0,1,1/1,0,1/0,0,1
iso 1:1,0,1/0,0,0/0,0,1>0,0,1/0,0,0/0,0,0 none
iso 1:1,1,0/0,0,0/0,0,1>1,1,0/0,1,0/0,0,1 0,1,0/1,0,0/0,1,1
iso 1:1,0,0,0/0,1,0,1/0,0,0,0/0,0,0,1>0,0,0,0/0,0,1,1/0,0,0,1/0,0,0,0 0,0,1,0/1,0,0,1/1,1,0,1/1,1,0,0
iso 1:1,0,1,0/0,0,1,1/0,0,0,1/0,0,0,0>1,1,1,1/0,1,0,0/0,0,1,1/0,0,0,1 0,1,0,0/0,0,1,1/0,1,1,0/1,1,0,1
iso 1:1,1,1,1/0,0,0,0/0,0,1,1/0,0,0,0>0,1,1,0/0,1,1,0/0,0,1,1/0,0,0,1 none
iso 1:1,0,0,0/0,1,1,0/0,0,0,0/0,0,0,1>0,0,0,1/0,1,0,1/0,0,1,0/0,0,0,0 0,0,1,1/0,0,0,1/1,1,0,0/0,1,0,0
iso 1:0,0,0,1/0,1,0,0/0,0,0,0/0,0,0,1>0,0,0,1/0,1,0,0/0,0,1,0/0,0,0,1 0,0,0,1/0,0,1,0/1,1,1,1/1,0,0,0
iso 1:1,0,0,0/0,1,1,0/0,0,1,0/0,0,0,1>0,0,1,1/0,0,0,0/0,0,0,0/0,0,0,1 0,0,1,0/0,0,0,1/1,0,1,1/1,1,0,1
iso 2:2>2 1
iso 2:1>3 3
iso 2:1>0 none
iso 2:3>1 2
iso 2:0>3 none
iso 2:2>0 none
iso 2:1,3/0,1>3,3/0,1 0,1/1,1
iso 2:1,0/0,3>1,0/0,1 0,1/1,3
iso 2:2,0/0,0>2,0/0,0 1,0/0,1
iso 2:3,3/0,0>3,2/0,1 0,1/2,1
iso 2:1,2/0,3>2,2/0,0 1,3/2,0
iso 2:1,3/0,2>0,3/0,2 0,3/2,2
iso 2:3,0,0/0,0,0/0,0,0>3,2,2/0,2,1/0,0,2 none
iso 2:0,0,2/0,3,0/0,0,3>0,0,0/0,3,0/0,0,2 none
iso 2:3,2,2/0,2,3/0,0,3>1,2,3/0,2,0/0,0,2 none
iso 2:2,0,1/0,3,3/0,0,3>0,2,0/0,2,2/0,0,0 0,1,3/1,3,1/0,1,0
iso 2:1,3,2/0,1,0/0,0,0>1,1,2/0,0,3/0,0,1 0,2,2/0,0,2/1,1,2
iso 2:0,2,1/0,0,0/0,0,2>0,1,1/0,3,0/0,0,0 0,2,1/0,0,2/1,0,2"""


def test_first_found_isometries_match_pinned_values():
    lines = []
    for form, other in first_found_cases():
        got = spaces_isomorphic(form, other)
        lines.append("iso %d:%s>%s %s" % (
            form.field.n, _rows_key(form.coeffs), _rows_key(other.coeffs),
            _rows_key(got) if got else "none"))
    assert "\n".join(lines) == PINNED_FIRST_FOUND.strip()
