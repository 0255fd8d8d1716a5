"""The exact linear-algebra kernel against schoolbook references.

The references below use nothing of `linalg`: field products and
inverses come from `field.mul`/`field.inv`, sums from `field.add`, and
elimination is textbook Gauss-Jordan with row swaps.  The strategies
favour the entries 0 and 1, so zero rows, duplicate rows, unit leads
(the XOR-only path) and non-unit leads (the scaled path) all occur.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from char2conf import linalg
from char2conf.gf2field import GF2Field

FIELDS = {n: GF2Field(n) for n in range(1, 9)}
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


# -- schoolbook references --------------------------------------------------

def ref_dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def ref_mat_mul(field, a, b):
    return tuple(tuple(ref_dot(field, row, [r[j] for r in b])
                       for j in range(len(b[0])))
                 for row in a)


def ref_combine(field, coeffs, vectors):
    acc = [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        acc = [field.add(x, field.mul(c, y)) for x, y in zip(acc, v)]
    return tuple(acc)


def ref_rref(field, rows):
    """Gauss-Jordan with row swaps: (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    top = 0
    for col in range(ncols):
        piv = next((i for i in range(top, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        scale = field.inv(m[top][col])
        m[top] = [field.mul(scale, x) for x in m[top]]
        for i in range(len(m)):
            c = m[i][col]
            if i != top and c:
                m[i] = [field.add(x, field.mul(c, y))
                        for x, y in zip(m[i], m[top])]
        pivots.append(col)
        top += 1
    return [tuple(r) for r in m[:top]], pivots


def ref_rank(field, rows):
    return len(ref_rref(field, rows)[1])


def ref_apply(field, rows, x):
    return tuple(ref_dot(field, row, x) for row in rows)


def ref_solve(field, ncols, rows, b):
    """(particular, null basis) of A@x = b read off Gauss-Jordan on
    [A | b], or None when the side column holds a pivot."""
    red, pivots = ref_rref(field, [tuple(r) + (x,) for r, x in zip(rows, b)])
    if ncols in pivots:
        return None
    particular = [0] * ncols
    for row, p in zip(red, pivots):
        particular[p] = row[ncols]
    basis = []
    for j in range(ncols):
        if j not in pivots:
            v = [0] * ncols
            v[j] = 1
            for row, p in zip(red, pivots):
                v[p] = row[j]
            basis.append(tuple(v))
    return tuple(particular), basis


def solution_set(field, solved):
    """Every x in particular + span(basis), by brute force."""
    if solved is None:
        return set()
    particular, basis = solved
    return {tuple(field.add(x, y) for x, y in
                  zip(particular, ref_combine(field, cs, basis)))
            if basis else particular
            for cs in itertools.product(range(field.order), repeat=len(basis))}


# -- strategies ---------------------------------------------------------------

def elements(field):
    return st.one_of(st.sampled_from((0, 1)),
                     st.integers(0, field.order - 1))


@st.composite
def matrices(draw, square=False):
    """(field, ncols, rows): up to 6 rows of 1..6 columns over GF(2^n),
    n <= 8, with zero rows and duplicates mixed in and the rows shuffled;
    square matrices have ncols rows and no mixing."""
    field = FIELDS[draw(st.integers(1, 8))]
    ncols = draw(st.integers(1, 6))
    nrows = ncols if square else draw(st.integers(0, 6))
    vec = st.tuples(*[elements(field)] * ncols)
    rows = draw(st.lists(vec, min_size=nrows, max_size=nrows))
    if rows and not square:
        rows += [rows[i] for i in draw(st.lists(
            st.integers(0, len(rows) - 1), max_size=2))]
        if draw(st.booleans()):
            rows.append((0,) * ncols)
        rows = draw(st.permutations(rows))
    return field, ncols, rows


# -- properties ---------------------------------------------------------------

@PROPERTY
@given(matrices(), st.data())
def test_rref_matches_gauss_jordan(case, data):
    field, _, rows = case
    want = ref_rref(field, rows)
    assert linalg.rref(field, rows) == want
    assert linalg.rank(field, rows) == len(want[1])
    # the reduced form belongs to the row space, not to the row order
    shuffled = data.draw(st.permutations(rows))
    assert linalg.rref(field, shuffled) == want


@PROPERTY
@given(matrices(), st.data())
def test_solve_affine_and_nullspace(case, data):
    field, ncols, rows = case
    if not rows:
        # with no equations there is no width to read: zero unknowns
        assert linalg.solve_affine(field, [], []) == ((), [])
        return
    rhs = data.draw(st.tuples(*[elements(field)] * len(rows)))
    solved = linalg.solve_affine(field, rows, rhs)
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    rank = ref_rank(field, rows)
    if ref_rank(field, aug) > rank:
        assert solved is None
        return
    particular, basis = solved
    assert ref_apply(field, rows, particular) == tuple(rhs)
    assert len(basis) == ncols - rank
    assert ref_rank(field, basis) == len(basis)
    for v in basis:
        assert ref_apply(field, rows, v) == (0,) * len(rows)
    assert linalg.nullspace(field, rows) == basis


@PROPERTY
@given(matrices(), st.data())
def test_reduced_system_solves_every_side_like_gauss_jordan(case, data):
    # rows pushed one at a time, each carrying up to 4 right-hand sides;
    # every prefix must answer every side as Gauss-Jordan on [A | b_k]
    # does, and growing the system must leave the smaller one as it was
    field, ncols, rows = case
    nsides = data.draw(st.integers(1, 4))
    sides = [data.draw(st.tuples(*[elements(field)] * nsides)) for _ in rows]
    systems = [linalg.ReducedSystem(field, ncols)]
    for row, side in zip(rows, sides):
        systems.append(systems[-1].with_row(tuple(row) + side))
    for i, system in enumerate(systems):
        for k in range(nsides):
            b = [side[k] for side in sides[:i]]
            want = ref_solve(field, ncols, rows[:i], b)
            got = system.solution(k)
            assert got == want
            if field.order ** ncols <= 64:
                assert solution_set(field, got) == {
                    x for x in itertools.product(range(field.order),
                                                 repeat=ncols)
                    if ref_apply(field, rows[:i], x) == tuple(b)}
    for p, r in systems[-1].rows:
        assert r[p] == 1
        assert not any(r[q] for q, _ in systems[-1].rows if q != p)


@PROPERTY
@given(matrices(square=True))
def test_mat_inv(case):
    field, dim, m = case
    inv = linalg.mat_inv(field, m)
    if ref_rank(field, m) < dim:
        assert inv is None
        return
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    assert ref_mat_mul(field, m, inv) == ident
    assert ref_mat_mul(field, inv, m) == ident


@PROPERTY
@given(matrices(), st.data())
def test_mat_mul_dot_and_combine(case, data):
    field, ncols, a = case
    if not a:
        return
    vec = st.tuples(*[elements(field)] * ncols)
    width = data.draw(st.integers(1, 6))
    b = data.draw(st.lists(st.tuples(*[elements(field)] * width),
                           min_size=ncols, max_size=ncols))
    assert linalg.mat_mul(field, a, b) == ref_mat_mul(field, a, b)
    u, v = data.draw(vec), data.draw(st.sampled_from(a))
    assert linalg.dot(field, u, v) == ref_dot(field, u, v)
    assert linalg.mat_vec(field, a, u) == ref_apply(field, a, u)
    coeffs = data.draw(st.lists(elements(field), min_size=len(a),
                                max_size=len(a)))
    assert linalg.combine(field, coeffs, a) == ref_combine(field, coeffs, a)
    for c in coeffs:
        assert linalg.vec_scale(field, c, u) == \
            tuple(field.mul(c, x) for x in u)


@PROPERTY
@given(matrices())
def test_reduced_system_tracks_rank(case):
    field, ncols, rows = case
    system = linalg.ReducedSystem(field, ncols)
    for k, row in enumerate(rows):
        grew = ref_rank(field, rows[:k + 1]) > ref_rank(field, rows[:k])
        assert any(system.reduce(row)) is grew
        grown = system.with_row(row)
        assert (grown is not system) is grew
        system = grown
    for p, r in system.rows:
        assert r[p] == 1 and not any(r[:p])
    kept = [r for _, r in system.rows]
    assert ref_rank(field, kept) == len(kept) == ref_rank(field, rows)
    assert system.zero == ()
    assert linalg.independent_subset(field, rows) == [
        r for k, r in enumerate(rows)
        if ref_rank(field, rows[:k + 1]) > ref_rank(field, rows[:k])]


@PROPERTY
@given(matrices())
def test_growing_a_system_leaves_the_older_one_untouched(case):
    # a backtracking search undoes a row by going back to the older system
    field, ncols, rows = case
    systems = [linalg.ReducedSystem(field, ncols)]
    states = [list(systems[0].rows)]
    for row in rows:
        grown = systems[-1].with_row(row)
        if grown is systems[-1]:
            continue  # a dependent row changes nothing
        systems.append(grown)
        states.append(list(grown.rows))
    for system, state in zip(systems, states):
        assert list(system.rows) == state


@PROPERTY
@given(matrices(), st.data())
def test_affine_points_cover_the_coset(case, data):
    field, ncols, rows = case
    particular = data.draw(st.tuples(*[elements(field)] * ncols))
    # at most 2 directions up to GF(8), 1 above: q^k points stay few
    basis = linalg.independent_subset(field, rows)[:2 if field.n <= 3 else 1]
    got = list(linalg.affine_points(field, particular, basis))
    want = {tuple(field.add(x, y) for x, y in
                  zip(particular, ref_combine(field, cs, basis)))
            for cs in itertools.product(field.elements(), repeat=len(basis))
            } if basis else {particular}
    assert len(got) == field.order ** len(basis)
    assert set(got) == want


# -- edge cases ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3])
def test_empty_and_zero_inputs(n):
    field = FIELDS[n]
    assert linalg.rref(field, []) == ([], [])
    assert linalg.rank(field, []) == 0
    assert linalg.rref(field, [(0, 0, 0), (0, 0, 0)]) == ([], [])
    assert linalg.rank(field, [()]) == 0
    assert linalg.nullspace(field, []) == []
    assert linalg.combine(field, [], []) == ()
    assert linalg.combine(field, [0, 0], [(1, 2 % field.order), (1, 1)]) \
        == (0, 0)
    assert linalg.dot(field, (), ()) == 0
    assert linalg.independent_subset(field, [(0, 0)]) == []
    empty = linalg.ReducedSystem(field, 3)
    assert empty.with_row((0, 0, 0)) is empty


def test_rows_after_full_rank_change_nothing():
    # once every column has a pivot the later rows lie in the span
    field = FIELDS[2]
    rows = [(2, 3), (3, 3), (1, 1), (3, 2), (0, 0)]
    assert linalg.rref(field, rows) == ([(1, 0), (0, 1)], [0, 1])
    assert linalg.rref(field, rows[:1]) == ([(1, 2)], [0])


def test_non_unit_leads_are_normalized():
    field = FIELDS[3]
    for a in range(2, field.order):
        rows, pivots = linalg.rref(field, [(0, a, field.mul(a, 5))])
        assert rows == [(0, 1, 5)] and pivots == [1]
        system = linalg.ReducedSystem(field, 3).with_row((0, a, 0))
        assert list(system.rows) == [(1, (0, 1, 0))]
