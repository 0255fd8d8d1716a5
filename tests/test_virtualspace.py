"""Minimal non-degenerate embeddings and their isometry groups."""

import itertools

import pytest

from char2conf.gf2field import GF2Field
from char2conf.quadspace import QuadraticForm, enumerate_isometries
from char2conf.virtualspace import (
    VirtualSpace, embed_minimal, restriction_surjectivity, viso_group,
)
from char2conf import linalg
from char2conf.errors import (
    MalformedDocumentError, NotEmbeddableError, PreconditionViolatedError,
)

GF2 = GF2Field(1)
GF4 = GF2Field(2)


def test_embed_nondegenerate_is_identity():
    h = QuadraticForm(GF2, [[0, 1], [0, 0]])
    vs = embed_minimal(h)
    assert vs.ambient == h
    assert vs.u_basis.dim == 2
    assert vs.omega_vector() is None
    assert vs.u_form() == h


def test_embed_one_dim_square():
    vs = embed_minimal(QuadraticForm(GF2, [[1]]))
    assert vs.ambient.dim == 2
    assert vs.ambient.radical().dim == 0
    assert vs.u_form().coeffs == ((1,),)
    omega = vs.omega_vector()
    assert omega is not None
    # U really is the perp of omega
    perp = vs.ambient.perp([omega])
    assert perp == vs.u_basis
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
    assert vs.omega_vector() == (0, 0, 1, 0)


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
    assert viso_group(vs).order == enumerate_isometries(h).order == 2


def test_viso_elliptic_stabilizer():
    elliptic = QuadraticForm(GF2, [[1, 1], [0, 1]])
    vs = VirtualSpace(elliptic, [(1, 0)])
    grp = viso_group(vs)
    assert grp.order == 2
    full = set(enumerate_isometries(elliptic).elements)
    assert set(grp.elements) <= full
    omega = vs.omega_vector()
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
                assert other.fingerprint() == reference.fingerprint()
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
