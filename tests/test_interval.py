"""Interval algebra and face lattice tests.

The oracles here are independent of the production decision procedures:
expressions are evaluated exhaustively in the four-element De Morgan algebra
(which generates the variety), and faces under all consistent 0/1 valuations
of their atoms.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from gctt.interval import (
    FACE_BOT,
    FACE_TOP,
    I0,
    I1,
    IJoin,
    IMeet,
    INeg,
    IVar,
    ONE,
    ZERO,
    Face,
    clause_assignment,
    dm_canonical,
    dm_dnf,
    dm_equal,
    dm_is_one,
    dm_subst_all,
    face_clauses,
    face_equal,
    face_forall,
    face_join,
    face_lit,
    face_meet,
    face_names,
    face_of_eq,
    face_str,
    face_subst_all,
    iexpr_str,
    inames,
)

i, j, k = IVar("i"), IVar("j"), IVar("k")

# ---------------------------------------------------------------------------
# Oracle 1: the four-element De Morgan algebra {0, a, b, 1}.
# Elements are encoded as pairs in {0,1}^2 ordered componentwise, with
# 0=(0,0), a=(0,1), b=(1,0), 1=(1,1) and negation (x,y) |-> (1-y, 1-x),
# so -a=a and -b=b.  Equality in the free De Morgan algebra is equality
# under every assignment of names into this algebra.

DM4 = [(0, 0), (0, 1), (1, 0), (1, 1)]


def dm4_eval(r, env):
    match r:
        case I0():
            return (0, 0)
        case I1():
            return (1, 1)
        case IVar(name):
            return env[name]
        case INeg(arg):
            x, y = dm4_eval(arg, env)
            return (1 - y, 1 - x)
        case IMeet(lhs, rhs):
            (a1, a2), (b1, b2) = dm4_eval(lhs, env), dm4_eval(rhs, env)
            return (min(a1, b1), min(a2, b2))
        case IJoin(lhs, rhs):
            (a1, a2), (b1, b2) = dm4_eval(lhs, env), dm4_eval(rhs, env)
            return (max(a1, b1), max(a2, b2))
    raise AssertionError(r)


def dm4_vector(r, names):
    return tuple(
        dm4_eval(r, dict(zip(names, vals)))
        for vals in itertools.product(DM4, repeat=len(names))
    )


def dm4_equal(r, s):
    names = sorted(inames(r) | inames(s))
    return dm4_vector(r, names) == dm4_vector(s, names)


def enumerate_iexprs(names, height):
    """All expression trees up to the given height; leaves have height 1."""
    layers = [[ZERO, ONE] + [IVar(n) for n in names]]
    for _ in range(height - 1):
        below = [e for layer in layers for e in layer]
        prev = layers[-1]
        new = [INeg(e) for e in prev]
        # one argument from the top layer keeps the tree height-bounded
        for a in prev:
            for b in below:
                new.append(IMeet(a, b))
                new.append(IJoin(a, b))
                if b not in prev:
                    new.append(IMeet(b, a))
                    new.append(IJoin(b, a))
        layers.append(new)
    return [e for layer in layers for e in layer]


# ---------------------------------------------------------------------------
# Oracle 2: faces under constrained valuations.  A valuation maps each
# literal (n, p) to 0 or 1 such that (n,0) and (n,1) are not both 1.


def face_valuations(names):
    per_name = [[(0, 0), (0, 1), (1, 0)]] * len(names)
    for combo in itertools.product(*per_name):
        yield {
            (n, p): combo[idx][p]
            for idx, n in enumerate(names)
            for p in (0, 1)
        }


def face_eval(phi, val):
    return any(all(val[(n, p)] for n, p in c) for c in phi.clauses)


def face_vector(phi, names):
    return tuple(face_eval(phi, v) for v in face_valuations(names))


def entails(phi, psi):
    """phi <= psi in the face lattice."""
    return face_equal(face_meet(phi, psi), phi)


def all_faces(names):
    """Every element of the face lattice over the given names."""
    literals = [(n, p) for n in names for p in (0, 1)]
    clauses = [
        frozenset(c)
        for size in range(1, len(literals) + 1)
        for c in itertools.combinations(literals, size)
        if not any((n, 1 - p) in c for n, p in c)
    ]
    faces = set()
    for subset in itertools.chain.from_iterable(
        itertools.combinations(clauses, n) for n in range(len(clauses) + 1)
    ):
        faces.add(face_join(FACE_BOT, Face(frozenset())) if not subset
                  else None)
        phi = FACE_BOT
        for c in subset:
            phi = face_join(phi, Face(frozenset((c,))))
        faces.add(phi)
    faces.add(FACE_TOP)
    faces.discard(None)
    return sorted(faces, key=lambda f: sorted(map(sorted, f.clauses)))


# ---------------------------------------------------------------------------
# Hypothesis generators

names_st = st.sampled_from(["i", "j", "k", "l"])


def iexpr_st(max_depth=5):
    base = st.one_of(
        st.just(ZERO), st.just(ONE), names_st.map(IVar)
    )
    return st.recursive(
        base,
        lambda sub: st.one_of(
            sub.map(INeg),
            st.tuples(sub, sub).map(lambda t: IMeet(*t)),
            st.tuples(sub, sub).map(lambda t: IJoin(*t)),
        ),
        max_leaves=2 ** max_depth,
    )


face_atom_st = st.tuples(names_st, st.sampled_from([0, 1])).map(
    lambda t: face_lit(*t)
)


def face_st():
    return st.recursive(
        st.one_of(st.just(FACE_BOT), st.just(FACE_TOP), face_atom_st),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda t: face_meet(*t)),
            st.tuples(sub, sub).map(lambda t: face_join(*t)),
        ),
        max_leaves=8,
    )


# ---------------------------------------------------------------------------
# dm_subst_all


def test_subst_examples():
    assert dm_subst_all(IMeet(i, j), {"i": ONE}) == IMeet(ONE, j)
    assert dm_subst_all(INeg(i), {"i": ZERO}) == INeg(ZERO)
    assert dm_subst_all(k, {"i": ZERO}) == k


def test_subst_identity():
    r = IJoin(IMeet(i, INeg(j)), k)
    assert dm_subst_all(r, {"i": i}) == r


# ---------------------------------------------------------------------------
# dm_equal / dm_canonical


def test_de_morgan_law_example():
    assert dm_equal(INeg(IMeet(i, j)), IJoin(INeg(i), INeg(j)))


def test_equal_reflexive():
    r = IMeet(i, IJoin(j, INeg(k)))
    assert dm_equal(r, r)


def test_meet_with_negation_is_not_zero():
    # the assignment i |-> a distinguishes i /\ -i from 0
    r = IMeet(i, INeg(i))
    assert not dm4_equal(r, ZERO)
    assert not dm_equal(r, ZERO)


def test_join_with_negation_is_not_one():
    r = IJoin(i, INeg(i))
    assert not dm_equal(r, ONE)
    canon = dm_canonical(r)
    assert canon not in (ZERO, ONE)


def test_canonical_unit_law():
    assert dm_canonical(IJoin(ONE, j)) == ONE


def test_canonical_de_morgan():
    assert dm_canonical(INeg(IMeet(i, j))) == dm_canonical(IJoin(INeg(i), INeg(j)))


def test_canonical_closed_expressions_reach_endpoints():
    closed = enumerate_iexprs([], 3)
    for r in closed:
        assert dm_canonical(r) in (ZERO, ONE)


def test_dm_equal_agrees_with_dm4_oracle_exhaustively():
    """Kalman generation: canonical DNF equality iff DM4-valuation equality."""
    names = ["i", "j"]
    by_dnf = {}
    by_vec = {}
    for r in enumerate_iexprs(names, 3):
        d = dm_dnf(r)
        v = dm4_vector(r, names)
        assert by_dnf.setdefault(d, v) == v, iexpr_str(r)
        assert by_vec.setdefault(v, d) == d, iexpr_str(r)


@given(iexpr_st(), iexpr_st())
@settings(max_examples=300)
def test_dm_equal_matches_oracle_random(r, s):
    assert dm_equal(r, s) == dm4_equal(r, s)


@given(iexpr_st(), iexpr_st())
def test_de_morgan_laws_hold(r, s):
    assert dm_equal(INeg(IMeet(r, s)), IJoin(INeg(r), INeg(s)))
    assert dm_equal(INeg(IJoin(r, s)), IMeet(INeg(r), INeg(s)))


@given(iexpr_st())
def test_involution(r):
    assert dm_equal(INeg(INeg(r)), r)


@given(iexpr_st(), iexpr_st(), iexpr_st())
@settings(max_examples=200)
def test_distributivity(r, s, t):
    assert dm_equal(IMeet(r, IJoin(s, t)), IJoin(IMeet(r, s), IMeet(r, t)))


@given(iexpr_st(), iexpr_st())
def test_canonical_decides_equality(r, s):
    assert dm_equal(r, s) == (dm_canonical(r) == dm_canonical(s))


@given(iexpr_st())
def test_canonical_is_idempotent(r):
    assert dm_canonical(dm_canonical(r)) == dm_canonical(r)


def test_disjunction_property():
    closed = enumerate_iexprs([], 3)
    for r in closed:
        for s in closed:
            if dm_is_one(IJoin(r, s)):
                assert dm_is_one(r) or dm_is_one(s)
    assert not dm_equal(ZERO, ONE)


# ---------------------------------------------------------------------------
# face_of_eq


def test_face_of_eq_meet():
    assert face_equal(
        face_of_eq(IMeet(i, j), 1),
        face_meet(face_lit("i", 1), face_lit("j", 1)),
    )


def test_face_of_eq_one():
    assert face_of_eq(ONE, 1) == FACE_TOP


def test_face_of_eq_neg():
    assert face_equal(face_of_eq(INeg(i), 1), face_lit("i", 0))


@given(iexpr_st(max_depth=4), st.sampled_from([0, 1]))
@settings(max_examples=200)
def test_face_of_eq_against_valuations(r, pol):
    """(r=pol) holds under a clause assignment iff r evaluates to pol."""
    phi = face_of_eq(r, pol)
    names = sorted(inames(r))
    for vals in itertools.product([ZERO, ONE], repeat=len(names)):
        sub = dict(zip(names, vals))
        closed = dm_subst_all(r, sub)
        val = {
            (n, p): int(sub[n] == (ONE if p else ZERO))
            for n in names
            for p in (0, 1)
        }
        expected = dm_canonical(closed) == (ONE if pol else ZERO)
        assert face_eval(phi, val) == expected


# ---------------------------------------------------------------------------
# face lattice operations


def test_contradictory_literals_meet_to_bottom():
    assert face_meet(face_lit("i", 0), face_lit("i", 1)) == FACE_BOT


def test_join_unit():
    phi = face_meet(face_lit("i", 1), face_lit("j", 0))
    assert face_equal(face_join(phi, FACE_BOT), phi)


def test_absorption():
    phi = face_meet(face_lit("i", 1), face_lit("j", 0))
    assert face_equal(face_join(phi, face_lit("i", 1)), face_lit("i", 1))


def test_endpoint_cover_is_not_top():
    both = face_join(face_lit("i", 0), face_lit("i", 1))
    assert not face_equal(both, FACE_TOP)


def test_entailment():
    phi = face_meet(face_lit("i", 1), face_lit("j", 1))
    assert entails(phi, face_lit("i", 1))
    assert not entails(face_lit("i", 1), phi)


def test_face_equal_agrees_with_valuation_oracle_exhaustively():
    names = ["i", "j"]
    faces = all_faces(names)
    vectors = [face_vector(f, names) for f in faces]
    for (f1, v1), (f2, v2) in itertools.product(zip(faces, vectors), repeat=2):
        assert face_equal(f1, f2) == (v1 == v2), (face_str(f1), face_str(f2))


@given(face_st(), face_st())
@settings(max_examples=200)
def test_face_ops_match_valuations(phi, psi):
    names = sorted(face_names(phi) | face_names(psi) | {"i"})
    for op, fop in ((face_meet, min), (face_join, max)):
        got = face_vector(op(phi, psi), names)
        want = tuple(
            fop(a, b)
            for a, b in zip(face_vector(phi, names), face_vector(psi, names))
        )
        assert got == want


# ---------------------------------------------------------------------------
# face_subst_all


def test_face_subst_examples():
    assert face_equal(
        face_subst_all(face_lit("i", 1), {"i": IMeet(j, k)}),
        face_meet(face_lit("j", 1), face_lit("k", 1)),
    )
    assert face_equal(face_subst_all(face_lit("j", 0), {"i": IJoin(j, k)}), face_lit("j", 0))
    assert face_subst_all(face_lit("i", 0), {"i": ZERO}) == FACE_TOP


@given(face_st(), face_st(), iexpr_st(max_depth=3))
@settings(max_examples=200)
def test_face_subst_commutes_with_lattice_ops(phi, psi, r):
    for op in (face_meet, face_join):
        lhs = face_subst_all(op(phi, psi), {"i": r})
        rhs = op(face_subst_all(phi, {"i": r}), face_subst_all(psi, {"i": r}))
        assert face_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# face_forall


def test_forall_examples():
    assert face_forall("i", face_lit("i", 0)) == FACE_BOT
    assert face_equal(face_forall("i", face_lit("j", 1)), face_lit("j", 1))
    phi = face_join(
        face_meet(face_lit("j", 1), face_lit("i", 1)), face_lit("j", 0)
    )
    assert face_equal(face_forall("i", phi), face_lit("j", 0))


def test_forall_adjunction_exhaustive():
    """psi <= forall_i phi iff psi <= phi, for i-free psi (brute force)."""
    phis = all_faces(["i", "j"])
    psis = all_faces(["j"])
    for phi in phis:
        forall = face_forall("i", phi)
        for psi in psis:
            assert entails(psi, forall) == entails(psi, phi)


# ---------------------------------------------------------------------------
# printing


def test_iexpr_str_round_shape():
    r = IJoin(IMeet(i, INeg(j)), ZERO)
    assert iexpr_str(r) == "i /\\ -j \\/ 0"


def test_face_str_shape():
    phi = face_join(face_meet(face_lit("i", 1), face_lit("j", 0)), face_lit("k", 1))
    assert face_str(phi) == "((i=1) /\\ (j=0)) \\/ (k=1)"
