"""Minimal non-degenerate embeddings and their isometry groups."""

import itertools
import random

import pytest

from char2conf.confgeo import build_geometry
from char2conf.gf2field import GF2Field
from char2conf.quadspace import (
    IsomGroup, QuadraticForm, arf_invariant, enumerate_isometries,
    isometry_order,
)
from char2conf.virtualspace import (
    VirtualSpace, embed_minimal, restriction_surjectivity, viso_group,
)
from char2conf import linalg, quadspace, virtualspace
from char2conf.errors import (
    ContractViolationError, MalformedDocumentError, NotEmbeddableError,
    PreconditionViolatedError,
)
from grouptools import fingerprint

GF2 = GF2Field(1)
GF4 = GF2Field(2)


def test_embed_nondegenerate_is_identity():
    h = QuadraticForm(GF2, [[0, 1], [0, 0]])
    vs = embed_minimal(h)
    assert vs.ambient == h
    assert vs.u_basis.dim == 2
    assert vs.u_perp().dim == 0
    assert vs.u_form() == h


def test_embed_one_dim_square():
    vs = embed_minimal(QuadraticForm(GF2, [[1]]))
    assert vs.ambient.dim == 2
    assert vs.ambient.radical().dim == 0
    assert vs.u_form().coeffs == ((1,),)
    # U-perp is the line of omega = U & U-perp, and U really is its perp
    omega, = vs.u_perp().basis
    assert vs.u_basis.contains(omega)
    assert vs.ambient.perp([omega]) == vs.u_basis
    # and the ambient is one of the non-degenerate dim-2 extensions
    # found by exhaustive search
    extensions = []
    for b, c in itertools.product(GF2.elements(), repeat=2):
        cand = QuadraticForm(GF2, [[1, b], [0, c]])
        if cand.radical().dim == 0 and len(linalg.nullspace(GF2, list(cand.gram()))) == 0:
            extensions.append(cand)
    assert vs.ambient in extensions


def test_embed_three_dim_with_kernel():
    form = QuadraticForm(GF2, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    vs = embed_minimal(form)
    assert vs.ambient.dim == 4
    assert vs.ambient.radical().dim == 0
    assert len(linalg.nullspace(GF2, list(vs.ambient.gram()))) == 0
    assert vs.u_form() == form
    assert vs.u_perp().basis == ((0, 0, 1, 0),)


def test_embed_rejects_wide_kernel():
    with pytest.raises(NotEmbeddableError):
        embed_minimal(QuadraticForm(GF2, [[0, 0], [0, 0]]))
    with pytest.raises(NotEmbeddableError):
        embed_minimal(QuadraticForm(GF2, [[1, 0], [0, 1]]))


def test_constructor_invariants():
    elliptic = QuadraticForm(GF2, [[1, 1], [0, 1]])
    VirtualSpace(elliptic, [(1, 0)])
    degenerate = QuadraticForm(GF2, [[1, 0], [0, 1]])
    with pytest.raises(PreconditionViolatedError):
        VirtualSpace(degenerate, [(1, 0)])
    four = QuadraticForm(GF2, [[1, 0, 1, 0], [0, 1, 0, 1],
                               [0, 0, 0, 0], [0, 0, 0, 0]])
    if four.radical().dim == 0:
        with pytest.raises(PreconditionViolatedError):
            VirtualSpace(four, [(1, 0, 0, 0), (0, 1, 0, 0)])


def test_viso_full_space_is_full_group():
    h = QuadraticForm(GF2, [[0, 1], [0, 0]])
    vs = embed_minimal(h)
    assert len(viso_group(vs).elements) == 2
    assert len(enumerate_isometries(h).elements) == 2


def test_viso_elliptic_stabilizer():
    elliptic = QuadraticForm(GF2, [[1, 1], [0, 1]])
    vs = VirtualSpace(elliptic, [(1, 0)])
    grp = viso_group(vs)
    assert grp.order == 2
    full = set(enumerate_isometries(elliptic).elements)
    assert set(grp.elements) <= full
    omega, = vs.u_perp().basis
    for m in grp:
        assert linalg.mat_vec(GF2, m, omega) == omega


def test_restriction_trivial_case():
    h = QuadraticForm(GF4, [[0, 1], [0, 0]])
    report = restriction_surjectivity(embed_minimal(h))
    assert report == {"surjective": True, "kernel_order": 1}


def test_restriction_elliptic_line():
    elliptic = QuadraticForm(GF2, [[1, 1], [0, 1]])
    vs = VirtualSpace(elliptic, [(1, 0)])
    report = restriction_surjectivity(vs)
    assert report["surjective"]
    # Iso(U) is trivial for Q = x^2 over GF(2), so the whole stabilizer
    # restricts to the identity
    assert report["kernel_order"] == 2


def test_restriction_gf4():
    vs = embed_minimal(QuadraticForm(GF4, [[1]]))
    report = restriction_surjectivity(vs)
    assert report["surjective"]


def test_viso_group_is_enumerated_once_per_space(monkeypatch):
    calls, searches = [], []
    search = quadspace._isometry_search

    def counting(form, fixed=None):
        calls.append((form, fixed))
        return enumerate_isometries(form, fixed=fixed)

    def counting_search(form, fixed):
        searches.append(list(fixed))
        return search(form, fixed)

    monkeypatch.setattr(virtualspace, "enumerate_isometries", counting)
    monkeypatch.setattr(quadspace, "_isometry_search", counting_search)
    vs = embed_minimal(QuadraticForm(GF4, [[1]]))
    grp = viso_group(vs)
    report = restriction_surjectivity(vs)
    # viso_group is one enumerate_isometries fixing U-perp; its order, the
    # restriction kernel's (U + U-perp is the line U-perp here) and
    # Iso(U)'s come from theory, so nothing is searched; the second call
    # of viso_group reuses the first
    perp = list(vs.u_perp().basis)
    assert calls == [(vs.ambient, perp),
                     (vs.ambient, list(vs.u_basis.basis) + perp)]
    assert viso_group(vs) is grp
    assert len(calls) == 2 and searches == []
    # the report an uncached run gives
    assert report == {"surjective": True, "kernel_order": 2}
    # reading the elements lists them once, by a search fixing U-perp
    assert len(grp.elements) == len(list(grp)) == grp.order == 2
    assert len(calls) == 2 and searches == [perp]


def test_restriction_refuses_a_restriction_that_is_no_isometry(
        monkeypatch):
    # ambient matrices that keep U but break Q on a column (x -> 2x on
    # Q = x^2 over GF(4)) or B on a pair of columns (e3 -> e1 + e3 keeps
    # Q(e3) = 1 and B(e1, .) but B(e2, e1 + e3) = 1 != B(e2, e3)).  A
    # search that also returned one would list more viso elements than
    # the closed-form order, or give a restriction kernel whose order
    # does not divide it (here all of viso and one more)
    cases = [
        (lambda: embed_minimal(QuadraticForm(GF4, [[1]])), ((2, 0), (0, 1))),
        (lambda: embed_minimal(QuadraticForm(GF2, [[0, 1, 0], [0, 0, 0],
                                                   [0, 0, 1]])),
         ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    ]
    search = virtualspace.enumerate_isometries
    isometry_search = quadspace._isometry_search
    for build, bad in cases:
        perp = list(build().u_perp().basis)
        order = viso_group(build()).order

        def bad_viso(form, fixed, perp=perp, bad=bad):
            found = list(isometry_search(form, fixed))
            return found + [bad] if fixed == perp else found

        with monkeypatch.context() as patched:
            patched.setattr(quadspace, "_isometry_search", bad_viso)
            with pytest.raises(ContractViolationError,
                               match="^listed %d elements of a group of"
                                     " order %d$" % (order + 1, order)):
                viso_group(build()).elements

        def bad_kernel(form, fixed=None, perp=perp, bad=bad):
            if fixed == perp:
                return search(form, fixed=fixed)
            return IsomGroup(form.field,
                             list(search(form, fixed=perp)) + [bad])

        refusal = (r"^restriction kernel of order %d does not divide"
                   r" \|viso\| = %d$" % (order + 1, order))
        with monkeypatch.context() as patched:
            patched.setattr(virtualspace, "enumerate_isometries", bad_kernel)
            with pytest.raises(ContractViolationError, match=refusal):
                restriction_surjectivity(build())


def test_restriction_refuses_a_viso_group_that_moves_u():
    # Q = xy + z^2 over GF(2): B has the kernel line e3, so (U-perp)-perp
    # is U + e3.  For a plane U outside e3 the map e1 -> e1,
    # e2 -> e1 + e2 + e3, e3 -> e3 fixes U-perp = span(e3) and moves U.
    # That is a property of the input, not a broken invariant
    form = QuadraticForm(GF2, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    for u in ([(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 1)]):
        with pytest.raises(PreconditionViolatedError,
                           match="^no restriction: an element fixing U-perp"
                                 " moves U off itself$"):
            restriction_surjectivity(VirtualSpace(form, u))
    # a line U = span(e1 + e3) lies in its own perp, so it stays fixed
    assert restriction_surjectivity(VirtualSpace(form, [(1, 0, 1)])) == {
        "surjective": True, "kernel_order": 2}
    # with the anisotropic plane x^2 + xy + y^2 in place of xy, Q is 1 on
    # every nonzero u in U = span(e1, e2) and 0 on every u + e3, so each
    # isometry keeps U; all 6 of them fix U-perp = span(e3) and restrict
    # to the 6 of O(U), each one by itself
    form = QuadraticForm(GF2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    vs = VirtualSpace(form, [(1, 0, 0), (0, 1, 0)])
    assert viso_group(vs).order == 6
    assert restriction_surjectivity(vs) == {"surjective": True,
                                            "kernel_order": 1}


def test_restriction_of_the_zero_subspace():
    # Iso of the 0-dimensional form is trivial, and the one viso element
    # (fixing U-perp, the whole space) restricts to it
    vs = VirtualSpace(QuadraticForm(GF2, [[0, 1], [0, 0]]), [])
    assert isometry_order(vs.u_form()) == 1
    assert restriction_surjectivity(vs) == {"surjective": True,
                                            "kernel_order": 1}


def test_restriction_requires_trivial_radical():
    h = QuadraticForm(GF2, [[0, 1], [0, 0]])
    vs = VirtualSpace(h, [(1, 0)])
    with pytest.raises(PreconditionViolatedError):
        restriction_surjectivity(vs)


def degenerate_dim_le3_forms(field):
    """All forms of dim <= 3 with exactly a line of bilinear kernel."""
    found = []
    for c in field.elements():
        form = QuadraticForm(field, [[c]])
        if c:
            found.append(form)
    for c00, c22 in itertools.product(field.elements(), repeat=2):
        form = QuadraticForm(field, [[c00, 1, 0], [0, 0, 0], [0, 0, c22]])
        if c22:
            found.append(form)
    return found


@pytest.mark.parametrize("field", [GF2, GF4])
def test_group_independent_of_ambient_choice(field):
    for u_form in degenerate_dim_le3_forms(field):
        reference = viso_group(embed_minimal(u_form))
        d = u_form.dim
        k = linalg.nullspace(field, list(u_form.gram()))[0]
        # try every repair row mu and every value of Q on the new vector
        seen = 0
        for mu in itertools.product(field.elements(), repeat=d):
            if linalg.dot(field, mu, k) != 1:
                continue
            for qf in field.elements():
                coeffs = [[u_form.coeffs[i][j] for j in range(d)] + [mu[i]]
                          for i in range(d)]
                coeffs.append([0] * d + [qf])
                ambient = QuadraticForm(field, coeffs)
                basis = [tuple(row) for row in linalg.identity(d + 1)][:d]
                other = viso_group(VirtualSpace(ambient, basis))
                assert fingerprint(other) == fingerprint(reference)
                seen += 1
                if seen >= 6:
                    break
            if seen >= 6:
                break


def test_json_roundtrip():
    vs = embed_minimal(QuadraticForm(GF2, [[1]]))
    doc = vs.to_json()
    assert doc["u_basis"] == [[1, 0]]
    assert VirtualSpace.from_json(doc) == vs


def test_from_json_rejects_malformed_documents():
    good = embed_minimal(QuadraticForm(GF2, [[1]])).to_json()
    for doc in ({}, [1], dict(good, u_basis=[1, 0]),
                dict(good, u_basis="rows"), dict(good, ambient=[1])):
        with pytest.raises(MalformedDocumentError):
            VirtualSpace.from_json(doc)


def test_u_basis_coordinates_are_checked():
    good = embed_minimal(QuadraticForm(GF2, [[1]])).to_json()
    with pytest.raises(ValueError):
        VirtualSpace.from_json(dict(good, u_basis=[[5, 0]]))
    ambient = QuadraticForm(GF2, [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        VirtualSpace(ambient, [(1, -1)])


# -- U & U-perp against a raw scan of U ---------------------------------------

def raw_q(form, v):
    """Q(v), evaluated term by term."""
    field = form.field
    acc = 0
    for i in range(form.dim):
        for j in range(i, form.dim):
            acc ^= field.mul(form.coeffs[i][j], field.mul(v[i], v[j]))
    return acc


def raw_b(form, u, v):
    """B(u, v) = Q(u + v) + Q(u) + Q(v), evaluated term by term."""
    w = tuple(x ^ y for x, y in zip(u, v))
    return raw_q(form, w) ^ raw_q(form, u) ^ raw_q(form, v)


def raw_span(field, dim, vectors):
    """{member of span(vectors): its coefficients}, by enumeration."""
    span = {}
    for coeffs in itertools.product(field.elements(), repeat=len(vectors)):
        acc = [0] * dim
        for c, v in zip(coeffs, vectors):
            for t, x in enumerate(v):
                acc[t] ^= field.mul(c, x)
        span[tuple(acc)] = coeffs
    return span


def raw_omega(ambient, vectors):
    """The lead-1 generator of U & U-perp, None when it is zero, or the
    string "refused" when it is wider than a line.  U = span(vectors) is
    enumerated and each member paired with every spanning vector through
    `raw_b`."""
    field = ambient.field
    kernel = [u for u in raw_span(field, ambient.dim, vectors)
              if any(u) and all(raw_b(ambient, u, v) == 0 for v in vectors)]
    if len(kernel) > field.order - 1:
        return "refused"
    leads = [u for u in kernel if next(x for x in u if x) == 1]
    return leads[0] if leads else None


@pytest.mark.parametrize("field", [GF2, GF4])
def test_kernel_line_matches_raw_scan(field):
    hyp = QuadraticForm(field, [[0, 1], [0, 0]])
    ell = QuadraticForm(field, [[1, 1], [0, field.arf_e()]])
    rng = random.Random(4100 + field.n)
    vectors = list(itertools.product(field.elements(), repeat=4))
    seen = set()
    for ambient in (hyp.direct_sum(hyp), hyp.direct_sum(ell)):
        for _ in range(80):
            spanning = [rng.choice(vectors) for _ in range(rng.randint(1, 3))]
            expected = raw_omega(ambient, spanning)
            seen.add(expected if expected in ("refused", None) else "line")
            if expected == "refused":
                with pytest.raises(PreconditionViolatedError) as exc:
                    VirtualSpace(ambient, spanning)
                assert str(exc.value) == \
                    "bilinear kernel of the subspace may be at most a line"
            else:
                # the lead-1 vectors of U-perp that lie in U
                vs = VirtualSpace(ambient, spanning)
                got = [v for v in raw_span(field, 4, vs.u_perp().basis)
                       if any(v) and next(x for x in v if x) == 1
                       and vs.u_basis.contains(v)]
                assert got == ([] if expected is None else [expected])
    assert seen == {"refused", None, "line"}


# -- restriction reports pinned before |O(U)| had a closed form ---------------

def _golden_spaces():
    """(key, zero-argument builder of a VirtualSpace) for the pinned cases:
    every degenerate_dim_le3_forms form, every plane form with pairing 1
    over GF(2) and GF(4), whole and plane-U spaces of the two
    non-degenerate 4-dim forms over GF(2), and the marked span of every
    class pair and total class at n = 1, 2, embedded as the geometry
    benchmark does."""
    def row_key(coeffs):
        return "/".join(",".join(map(str, row)) for row in coeffs)

    for field in (GF2, GF4):
        for form in degenerate_dim_le3_forms(field):
            yield ("%d:%s" % (field.n, row_key(form.coeffs)),
                   lambda form=form: embed_minimal(form))
        for c00, c11 in itertools.product(field.elements(), repeat=2):
            form = QuadraticForm(field, [[c00, 1], [0, c11]])
            yield ("%d:%s" % (field.n, row_key(form.coeffs)),
                   lambda form=form: embed_minimal(form))
    hyp = QuadraticForm(GF2, [[0, 1], [0, 0]])
    for name, ambient in (("hh", hyp.direct_sum(hyp)),
                          ("he", hyp.direct_sum(QuadraticForm(
                              GF2, [[1, 1], [0, 1]])))):
        yield "1:%s" % name, lambda ambient=ambient: embed_minimal(ambient)
        for half, u in (("12", [(1, 0, 0, 0), (0, 1, 0, 0)]),
                        ("34", [(0, 0, 1, 0), (0, 0, 0, 1)])):
            yield ("1:%s:%s" % (name, half),
                   lambda ambient=ambient, u=u: VirtualSpace(ambient, u))
    classes = ("0", "e", "inf")
    for field in (GF2, GF4):
        for cp, cl, cv in itertools.product(classes, classes, ("0", "e")):
            def marked(field=field, cp=cp, cl=cl, cv=cv):
                g = build_geometry(field, field.arf_of_class(cp),
                                   field.arf_of_class(cl),
                                   arf_v=field.arf_of_class(cv))
                return embed_minimal(g.form.restrict(
                    [g.omega.rep, g.p.rep, g.l.rep]))
            yield "%d/%s/%s/%s" % (field.n, cp, cl, cv), marked


def _golden_report(build):
    try:
        vs = build()
    except NotEmbeddableError:
        return "not-embeddable"
    try:
        report = restriction_surjectivity(vs)
    except PreconditionViolatedError:
        return "%d radical" % viso_group(vs).order
    return "%d %s %d" % (viso_group(vs).order, report["surjective"],
                         report["kernel_order"])


# recorded from a build that enumerated Iso(U) to decide `surjective`;
# key, viso order, then surjective and kernel order or why there is none
PINNED_RESTRICTION_REPORTS = """
1:1 2 True 2
1:0,1,0/0,0,0/0,0,1 12 True 2
1:1,1,0/0,0,0/0,0,1 12 True 2
1:0,1/0,0 2 True 1
1:0,1/0,1 2 True 1
1:1,1/0,0 2 True 1
1:1,1/0,1 6 True 1
2:1 2 True 2
2:2 2 True 2
2:3 2 True 2
2:0,1,0/0,0,0/0,0,1 120 True 2
2:0,1,0/0,0,0/0,0,2 120 True 2
2:0,1,0/0,0,0/0,0,3 120 True 2
2:1,1,0/0,0,0/0,0,1 120 True 2
2:1,1,0/0,0,0/0,0,2 120 True 2
2:1,1,0/0,0,0/0,0,3 120 True 2
2:2,1,0/0,0,0/0,0,1 120 True 2
2:2,1,0/0,0,0/0,0,2 120 True 2
2:2,1,0/0,0,0/0,0,3 120 True 2
2:3,1,0/0,0,0/0,0,1 120 True 2
2:3,1,0/0,0,0/0,0,2 120 True 2
2:3,1,0/0,0,0/0,0,3 120 True 2
2:0,1/0,0 6 True 1
2:0,1/0,1 6 True 1
2:0,1/0,2 6 True 1
2:0,1/0,3 6 True 1
2:1,1/0,0 6 True 1
2:1,1/0,1 6 True 1
2:1,1/0,2 10 True 1
2:1,1/0,3 10 True 1
2:2,1/0,0 6 True 1
2:2,1/0,1 10 True 1
2:2,1/0,2 10 True 1
2:2,1/0,3 6 True 1
2:3,1/0,0 6 True 1
2:3,1/0,1 10 True 1
2:3,1/0,2 6 True 1
2:3,1/0,3 10 True 1
1:hh 72 True 1
1:hh:12 2 True 1
1:hh:34 2 True 1
1:he 120 True 1
1:he:12 2 True 1
1:he:34 6 True 1
1/0/0/0 8 radical
1/0/0/e 8 radical
1/0/e/0 12 True 2
1/0/e/e 12 True 2
1/0/inf/0 12 True 2
1/0/inf/e 12 True 2
1/e/0/0 12 True 2
1/e/0/e 12 True 2
1/e/e/0 24 radical
1/e/e/e 24 radical
1/e/inf/0 12 True 2
1/e/inf/e 12 True 2
1/inf/0/0 12 True 2
1/inf/0/e 12 True 2
1/inf/e/0 12 True 2
1/inf/e/e 12 True 2
1/inf/inf/0 not-embeddable
1/inf/inf/e not-embeddable
2/0/0/0 96 radical
2/0/0/e 96 radical
2/0/e/0 120 True 2
2/0/e/e 120 True 2
2/0/inf/0 120 True 2
2/0/inf/e 120 True 2
2/e/0/0 120 True 2
2/e/0/e 120 True 2
2/e/e/0 160 radical
2/e/e/e 160 radical
2/e/inf/0 120 True 2
2/e/inf/e 120 True 2
2/inf/0/0 120 True 2
2/inf/0/e 120 True 2
2/inf/e/0 120 True 2
2/inf/e/e 120 True 2
2/inf/inf/0 not-embeddable
2/inf/inf/e not-embeddable
"""


def test_restriction_reports_match_pinned_values():
    got = "\n".join("%s %s" % (key, _golden_report(build))
                    for key, build in _golden_spaces())
    assert got == PINNED_RESTRICTION_REPORTS.strip()


# -- the counted groups against their listings --------------------------------

def seeded_line_perp_spaces(field, dim, per_class, seed):
    """(key, space): U = k-perp in seeded dim-dimensional ambients with B
    non-degenerate, per_class ambients of each Arf class, each with one
    k of every value of Q, so U-perp is the line span(k)."""
    rng = random.Random(seed)
    vectors = [v for v in itertools.product(field.elements(), repeat=dim)
               if any(v)]
    left = [per_class, per_class]
    while any(left):
        ambient = QuadraticForm(field, [
            [rng.choice(field.elements()) if j >= i else 0
             for j in range(dim)] for i in range(dim)])
        if linalg.nullspace(field, list(ambient.gram())):
            continue
        cls = field.trace(arf_invariant(ambient).value)
        if not left[cls]:
            continue
        left[cls] -= 1
        for c in field.elements():
            k = rng.choice([v for v in vectors if ambient.q(v) == c])
            yield ((field.n, dim, cls, c),
                   VirtualSpace(ambient, ambient.perp([k]).basis))


def _golden_built():
    for key, build in _golden_spaces():
        try:
            yield key, build()
        except NotEmbeddableError:
            pass


SEEDED_AMBIENTS = [(GF2, 4, 2, 2500), (GF4, 4, 2, 2501), (GF2, 6, 1, 2502)]


@pytest.mark.parametrize(
    "source", ["golden"] + SEEDED_AMBIENTS,
    ids=["golden"] + ["GF%d dim %d" % (1 << f.n, d)
                      for f, d, _, _ in SEEDED_AMBIENTS])
def test_closed_form_viso_order_is_the_listed_length(source):
    spaces = (_golden_built() if source == "golden"
              else seeded_line_perp_spaces(*source))
    keys = set()
    for key, vs in spaces:
        perp = list(vs.u_perp().basis)
        closed = quadspace._known_order(vs.ambient, perp)
        if closed is None:
            # only the golden plane-U spaces of 4-dim ambients fall outside
            assert source == "golden" and len(perp) == 2
            continue
        group = viso_group(vs)
        assert group.order == closed
        # listed now, by the search; the listing refuses a different size
        assert len(group.elements) == closed
        keys.add(key)
    if source != "golden":
        field, dim = source[:2]
        assert keys == {(field.n, dim, cls, c) for cls in (0, 1)
                        for c in field.elements()}


def raw_restrictions(vs):
    """{restriction to U: the number of listed viso elements giving it}.

    A restriction is the U-coordinates of the images of U's basis, read
    by raw matrix products and a scan of U; each image is checked to keep
    Q and B on U term by term."""
    field, ambient = vs.field, vs.ambient
    basis = vs.u_basis.basis
    coords = raw_span(field, ambient.dim, basis)
    counts = {}
    for m in viso_group(vs).elements:
        images = []
        for u in basis:
            image = [0] * ambient.dim
            for i, row in enumerate(m):
                for x, y in zip(row, u):
                    image[i] ^= field.mul(x, y)
            images.append(tuple(image))
        for i, image in enumerate(images):
            assert image in coords, "element moved U off itself"
            assert raw_q(ambient, image) == raw_q(ambient, basis[i])
            for j in range(i + 1, len(basis)):
                assert raw_b(ambient, image, images[j]) == \
                    raw_b(ambient, basis[i], basis[j])
        cols = tuple(coords[image] for image in images)
        counts[cols] = counts.get(cols, 0) + 1
    return counts


def test_restrictions_number_the_viso_order_over_the_kernel_order():
    # every pinned space whose U has a trivial radical
    checked = 0
    for _, vs in _golden_built():
        try:
            report = restriction_surjectivity(vs)
        except PreconditionViolatedError:
            continue
        counts = raw_restrictions(vs)
        kernel = report["kernel_order"]
        assert len(counts) == viso_group(vs).order // kernel
        # each restriction is one coset of the kernel, the identity's too
        assert set(counts.values()) == {kernel}
        assert counts[linalg.identity(vs.u_basis.dim)] == kernel
        assert report["surjective"] == (
            len(counts) == isometry_order(vs.u_form()))
        checked += 1
    assert checked == 68  # the pinned reports with a kernel order
