"""Property algebra: canonicalization, inference rules, stored patterns.

The five literal property sets and the rules over them are checked against
an oracle that derives them from C1-C3 by a fixpoint over member sets. The
rules are also checked for soundness against exact integer arithmetic: for
random matrices realizing the operand structures, the numeric result's
nonzero entries must lie inside the inferred pattern.
"""

import random
from itertools import combinations, product

import numpy as np
import pytest

from momc.errors import NonSquareStructuralProperty, UnknownProperty
from momc.properties import (
    DIAGONAL_PROPS,
    EMPTY_PROPS,
    Property,
    PropertySet,
    StoredPattern,
    canonicalize,
    infer_add,
    infer_mul,
    infer_transpose,
    stored_pattern,
)

from gen import CLOSED_PSETS, default_seed
from util import pattern_contains, run_text

L = Property.LOWER_TRIANGULAR
U = Property.UPPER_TRIANGULAR
D = Property.DIAGONAL
S = Property.SYMMETRIC

LOWER = PropertySet.closure((L,))
UPPER = PropertySet.closure((U,))
SYMM = PropertySet.closure((S,))
DIAG = PropertySet.closure((D,))

SUBSETS = [frozenset(c) for n in range(len(Property) + 1)
           for c in combinations(Property, n)]

# The closure of every property list a declaration can carry: all 16 subsets
# of the four properties, which close to the 5 sets of CLOSED_PSETS.
DECLARABLE_PSETS = [PropertySet.closure(c) for c in SUBSETS]


# --------------------------------------------------------------------------
# The oracle: C1-C3 and the inference rules over plain member sets
# --------------------------------------------------------------------------

def close(props) -> frozenset:
    """The fixpoint of C1-C3."""
    s = set(props)
    while True:
        add = set()
        if L in s and U in s:
            add.add(D)
        if S in s and (L in s or U in s):
            add.add(D)
        if D in s:
            add |= {L, U, S}
        if add <= s:
            return frozenset(s)
        s |= add


def oracle_generators(members) -> tuple:
    """Smallest subset whose closure is `members`, earliest in Property order."""
    ordered = [p for p in Property if p in members]
    for n in range(len(ordered) + 1):
        for combo in combinations(ordered, n):
            if close(combo) == members:
                return combo
    raise AssertionError("a closed set generates itself")


def oracle_pattern(members) -> StoredPattern:
    if D in members:
        return StoredPattern.DIAG_ONLY
    if L in members:
        return StoredPattern.LOWER_INCL
    if U in members:
        return StoredPattern.UPPER_INCL
    return StoredPattern.FULL


def test_closure_matches_the_fixpoint():
    assert len(SUBSETS) == 16
    for sub in SUBSETS:
        assert PropertySet.closure(sub).members == close(sub)


def test_the_five_sets_are_the_closed_subsets():
    assert {s.members for s in CLOSED_PSETS} == {close(sub) for sub in SUBSETS}
    assert len(set(CLOSED_PSETS)) == len(CLOSED_PSETS) == 5
    for s in CLOSED_PSETS:
        assert s.generators == oracle_generators(s.members)
        assert s.pattern is oracle_pattern(s.members)
        assert stored_pattern(s) is s.pattern
    assert EMPTY_PROPS.members == frozenset()
    assert DIAGONAL_PROPS.members == frozenset(Property)


def test_inference_matches_the_oracle():
    sq = (3, 3)
    for a, b in product(CLOSED_PSETS, repeat=2):
        assert infer_mul(a, sq, b, sq).members == \
            close(a.members & b.members & {L, U})
        assert infer_add(a, b).members == close(a.members & b.members)
    swap = {L: U, U: L}
    for a in CLOSED_PSETS:
        assert infer_transpose(a).members == \
            close(swap.get(p, p) for p in a.members)


def test_canonicalize_single_property():
    assert canonicalize(["LowerTriangular"], 5, 5) == LOWER


def test_canonicalize_closure_lower_upper():
    got = canonicalize(["LowerTriangular", "UpperTriangular"], 5, 5)
    assert got.members == frozenset({L, U, D, S})


@pytest.mark.parametrize("tri", ["LowerTriangular", "UpperTriangular"])
def test_canonicalize_triangular_symmetric_is_diagonal(tri):
    assert canonicalize([tri, "Symmetric"], 5, 5) == DIAG


def test_triangular_symmetric_declaration_stores_a_symmetric_matrix():
    # Before C3 the fill wrote a full lower triangle under a `symm` type, and
    # the transpose printed a different matrix.
    printed = run_text("Matrix A(3, 3) <LowerTriangular, Symmetric> = 2\n"
                       "B = transpose(A)\n"
                       "print(A)\n"
                       "print(B)\n").printed
    assert printed == ("3x3 f32\n2 0 0\n0 2 0\n0 0 2",) * 2


def test_generator_sets_are_exactly_the_closed_sets():
    assert set(DECLARABLE_PSETS) == set(CLOSED_PSETS)


def test_canonicalize_rejects_non_square():
    with pytest.raises(NonSquareStructuralProperty):
        canonicalize(["LowerTriangular"], 4, 5)
    with pytest.raises(NonSquareStructuralProperty):
        canonicalize(["Symmetric"], 4, 5)


def test_canonicalize_rejects_unknown_name():
    with pytest.raises(UnknownProperty):
        canonicalize(["Triangular"], 5, 5)


def test_infer_transpose():
    assert infer_transpose(LOWER) == UPPER
    assert infer_transpose(DIAG) == DIAG
    assert infer_transpose(EMPTY_PROPS) == EMPTY_PROPS


@pytest.mark.parametrize("s", DECLARABLE_PSETS)
def test_transpose_is_an_involution(s):
    assert infer_transpose(infer_transpose(s)) == s


def test_infer_mul():
    sq = (5, 5)
    assert infer_mul(LOWER, sq, LOWER, sq) == LOWER
    assert infer_mul(LOWER, sq, UPPER, sq) == EMPTY_PROPS
    assert infer_mul(DIAG, sq, DIAG, sq) == DIAG


def test_infer_mul_rectangular_drops_triangularity():
    assert infer_mul(LOWER, (5, 5), EMPTY_PROPS, (5, 3)) == EMPTY_PROPS


def test_infer_add():
    assert infer_add(LOWER, LOWER) == LOWER
    assert infer_add(SYMM, SYMM) == SYMM
    assert infer_add(LOWER, UPPER) == EMPTY_PROPS


def test_stored_pattern():
    assert stored_pattern(LOWER) is StoredPattern.LOWER_INCL
    assert stored_pattern(DIAG) is StoredPattern.DIAG_ONLY
    assert stored_pattern(SYMM) is StoredPattern.FULL
    assert stored_pattern(EMPTY_PROPS) is StoredPattern.FULL


def test_render_uses_minimal_generators():
    assert DIAG.render() == "[diag]"
    assert LOWER.render() == "[lowerTri]"
    assert EMPTY_PROPS.render() == "[]"
    assert PropertySet.closure((L, S)).render() == "[diag]"
    assert PropertySet.closure((U, S)).render() == "[diag]"
    assert DIAG.generators == (D,)
    assert str(LOWER) == "[lowerTri]"


@pytest.mark.parametrize("a,b", list(product(DECLARABLE_PSETS, repeat=2)))
def test_mul_associative_at_property_level(a, b):
    sq = (6, 6)
    for c in CLOSED_PSETS:
        lhs = infer_mul(infer_mul(a, sq, b, sq), sq, c, sq)
        rhs = infer_mul(a, sq, infer_mul(b, sq, c, sq), sq)
        assert lhs == rhs


def _realize(props: PropertySet, n: int, rng: random.Random) -> np.ndarray:
    """Random exact-integer matrix realizing every property in the set."""
    m = np.array([[rng.randint(1, 9) for _ in range(n)] for _ in range(n)],
                 dtype=object)
    if S in props:
        m = m + m.T
    pat = stored_pattern(props)
    mask = np.array([[1 if pattern_contains(pat, i, j) else 0 for j in range(n)]
                     for i in range(n)], dtype=object)
    if S in props:
        mask = mask * mask.T
    return m * mask


def _zeros_outside(m: np.ndarray, pat: StoredPattern) -> bool:
    n0, n1 = m.shape
    return all(m[i, j] == 0
               for i in range(n0) for j in range(n1)
               if not pattern_contains(pat, i, j))


def test_inference_soundness_against_brute_force():
    rng = random.Random(default_seed())
    n = 6
    sq = (n, n)
    for a, b in product(CLOSED_PSETS, repeat=2):
        for _ in range(3):
            ma = _realize(a, n, rng)
            mb = _realize(b, n, rng)
            assert _zeros_outside(ma @ mb, stored_pattern(infer_mul(a, sq, b, sq)))
            assert _zeros_outside(ma + mb, stored_pattern(infer_add(a, b)))
            assert _zeros_outside(ma.T, stored_pattern(infer_transpose(a)))


def test_inference_outputs_are_closed():
    # Every result is one of the five closed instances.
    sq = (4, 4)
    for a, b in product(CLOSED_PSETS, repeat=2):
        for s in (infer_mul(a, sq, b, sq), infer_add(a, b), infer_transpose(a)):
            assert PropertySet.closure(s.members) == s
