"""Quadratic form layer: documented values and exhaustive small cases."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from char2conf.gf2field import GF2Field, Arf, CLASS_ZERO, CLASS_E, CLASS_INF
from char2conf.metric import ort_group, ort_plus
from char2conf.quadspace import (
    DEGENERATE_PAIR, QuadraticForm, Subspace, arf_invariant,
    enumerate_isometries, spaces_isomorphic, symplectic_basis, witt_extend,
)
from char2conf import linalg
from char2conf.errors import (
    DegenerateBilinearError, DegenerateFormError, DimMismatchError,
    MalformedDocumentError, NotPartialIsometryError, TooLargeError,
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


def test_enumerate_isometries_documented():
    assert enumerate_isometries(elliptic(GF2)).order == 6
    assert enumerate_isometries(hyperbolic(GF2)).order == 2
    fixed_all = enumerate_isometries(elliptic(GF2), fixed=[(1, 0), (0, 1)])
    assert fixed_all.order == 1
    with pytest.raises(TooLargeError):
        enumerate_isometries(QuadraticForm(GF2Field(8), [[0, 1], [0, 0]]))


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


def test_enumerate_isometries_fixing_subset():
    e = elliptic(GF2)
    grp = enumerate_isometries(e, fixed=[(1, 1)])
    assert grp.order == 2
    for m in grp:
        assert linalg.mat_vec(GF2, m, (1, 1)) == (1, 1)


def test_gf4_hyperbolic_group_order():
    assert enumerate_isometries(hyperbolic(GF4)).order == 2 * (4 - 1)


def test_witt_extend():
    e = elliptic(GF2)
    m = witt_extend(e, [(1, 0)], [(1, 0)])
    assert linalg.mat_vec(GF2, m, (1, 0)) == (1, 0)
    m2 = witt_extend(e, [(1, 0)], [(0, 1)])
    assert linalg.mat_vec(GF2, m2, (1, 0)) == (0, 1)
    group = enumerate_isometries(e)
    assert m2 in set(group.elements)
    assert group.element_order(m2) in (2, 3)
    sigma2 = hyperbolic(GF2).direct_sum(hyperbolic(GF2))
    m3 = witt_extend(sigma2, [(1, 0, 0, 0)], [(0, 0, 1, 0)])
    assert linalg.mat_vec(GF2, m3, (1, 0, 0, 0)) == (0, 0, 1, 0)
    for v in itertools.product(GF2.elements(), repeat=4):
        assert sigma2.q(linalg.mat_vec(GF2, m3, v)) == sigma2.q(v)
    with pytest.raises(NotPartialIsometryError):
        witt_extend(hyperbolic(GF2), [(1, 0)], [(1, 1)])
    with pytest.raises(NotPartialIsometryError):
        witt_extend(sigma2, [(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0)],
                    [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0)])
    # a zero domain vector, before any independent one, must map to zero
    m4 = witt_extend(e, [(0, 0), (1, 0)], [(0, 0), (0, 1)])
    assert linalg.mat_vec(GF2, m4, (1, 0)) == (0, 1)
    with pytest.raises(NotPartialIsometryError):
        witt_extend(e, [(0, 0)], [(1, 0)])


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


# -- properties of the evaluation paths on random forms ---------------------

FIELDS = {n: GF2Field(n) for n in range(1, 9)}
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@st.composite
def form_and_vectors(draw):
    """A random upper-triangular form (dim 1..6, n <= 8) and two vectors."""
    field = FIELDS[draw(st.integers(1, 8))]
    dim = draw(st.integers(1, 6))
    elem = st.integers(0, field.order - 1)
    coeffs = [[draw(elem) if j >= i else 0 for j in range(dim)]
              for i in range(dim)]
    vec = st.tuples(*[elem] * dim)
    return QuadraticForm(field, coeffs), draw(vec), draw(vec)


def raw_q(form, v):
    f = form.field
    acc = 0
    for i in range(form.dim):
        for j in range(i, form.dim):
            acc ^= f.mul(form.coeffs[i][j], f.mul(v[i], v[j]))
    return acc


@PROPERTY
@given(form_and_vectors())
def test_q_matches_the_raw_double_sum(case):
    form, u, v = case
    assert form.q(u) == raw_q(form, u)
    assert form.q(v) == raw_q(form, v)


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
