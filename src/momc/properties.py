"""Matrix structure properties: closed property sets, inference rules, stored patterns.

A property set is always kept closed under three rules:

  C1: lowerTri and upperTri together imply diag
  C2: diag implies lowerTri, upperTri and symm
  C3: lowerTri or upperTri together with symm implies diag (a triangular
      matrix equal to its transpose has no nonzero off the diagonal)

Only 5 of the 16 subsets of `Property` are closed, so the lattice is a finite
table built once at import: `PropertySet.closure` returns one canonical
instance per closed set, and `stored_pattern`, `generators`/`render` and
`infer_mul`/`infer_add`/`infer_transpose` are lookups keyed by a set's
members. The closure fixpoint, the generator search and the inference rules
below run only while that table is built.

Inference is deliberately conservative: a rule may return fewer properties
than are mathematically derivable, never more. Soundness is what the cost
model and the fill semantics depend on, and it is what the brute-force tests
check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import NonSquareStructuralProperty, UnknownProperty


class ElemKind(enum.Enum):
    """IEEE-754 element type of stored entries."""

    F32 = "f32"
    F64 = "f64"

    def __str__(self) -> str:
        return self.value


class Property(enum.Enum):
    """The closed universe of structure properties (printed short names)."""

    LOWER_TRIANGULAR = "lowerTri"
    UPPER_TRIANGULAR = "upperTri"
    DIAGONAL = "diag"
    SYMMETRIC = "symm"

    def __str__(self) -> str:
        return self.value


# Fixed order used for printing and for deterministic generator selection.
_ORDER = {p: i for i, p in enumerate(Property)}

# Surface (declaration) spellings accepted by the frontend.
DECLARED_NAMES = {
    "LowerTriangular": Property.LOWER_TRIANGULAR,
    "UpperTriangular": Property.UPPER_TRIANGULAR,
    "Diagonal": Property.DIAGONAL,
    "Symmetric": Property.SYMMETRIC,
}


def _close(props: Iterable[Property]) -> frozenset[Property]:
    s = set(props)
    while True:
        add: set[Property] = set()
        if Property.LOWER_TRIANGULAR in s and Property.UPPER_TRIANGULAR in s:
            add.add(Property.DIAGONAL)
        if Property.SYMMETRIC in s and (Property.LOWER_TRIANGULAR in s
                                        or Property.UPPER_TRIANGULAR in s):
            add.add(Property.DIAGONAL)
        if Property.DIAGONAL in s:
            add |= {Property.LOWER_TRIANGULAR, Property.UPPER_TRIANGULAR,
                    Property.SYMMETRIC}
        if add <= s:
            return frozenset(s)
        s |= add


@dataclass(frozen=True)
class PropertySet:
    """A set of properties stored closed under C1-C3.

    Construct through :meth:`closure`, which returns the canonical instance
    of the closed set; direct construction rejects a non-closed member set
    so the invariant cannot be bypassed silently.
    """

    members: frozenset[Property]

    def __post_init__(self) -> None:
        if _close(self.members) != self.members:
            raise ValueError(f"property set {set(self.members)} is not closed")

    @staticmethod
    def closure(props: Iterable[Property]) -> "PropertySet":
        return _CLOSURE[frozenset(props)]

    def __contains__(self, p: Property) -> bool:
        return p in self.members

    def __iter__(self) -> Iterator[Property]:
        return iter(sorted(self.members, key=_ORDER.__getitem__))

    def __len__(self) -> int:
        return len(self.members)

    def generators(self) -> tuple[Property, ...]:
        """Smallest subset whose closure is this set, in fixed print order.

        Ties broken by preferring earlier properties, so the diagonal closure
        prints as just `diag`.
        """
        return _GENERATORS[self.members]

    def render(self) -> str:
        """Bracketed minimal-generator form used in IR dumps, e.g. `[lowerTri]`."""
        return _RENDERED[self.members]

    def __str__(self) -> str:
        return self.render()


class StoredPattern(enum.Enum):
    """Structural-nonzero region implied by a property set, over 0-based (i, j)."""

    FULL = "full"
    LOWER_INCL = "lowerIncl"
    UPPER_INCL = "upperIncl"
    DIAG_ONLY = "diagOnly"

    def __str__(self) -> str:
        return self.value


# --------------------------------------------------------------------------
# The rules, run only to build the lookup tables below
# --------------------------------------------------------------------------

Members = frozenset[Property]


def _search_generators(s: PropertySet) -> tuple[Property, ...]:
    ordered = tuple(s)
    for size in range(len(ordered) + 1):
        for combo in combinations(ordered, size):
            if _close(combo) == s.members:
                return combo
    raise AssertionError("unreachable: the set generates itself")


def _transpose_rule(s: Members) -> Members:
    swap = {
        Property.LOWER_TRIANGULAR: Property.UPPER_TRIANGULAR,
        Property.UPPER_TRIANGULAR: Property.LOWER_TRIANGULAR,
    }
    return frozenset(swap.get(p, p) for p in s)


def _square_mul_rule(a: Members, b: Members) -> Members:
    return a & b & {Property.LOWER_TRIANGULAR, Property.UPPER_TRIANGULAR}


def _pattern_rule(s: Members) -> StoredPattern:
    if Property.DIAGONAL in s:
        return StoredPattern.DIAG_ONLY
    if Property.LOWER_TRIANGULAR in s:
        return StoredPattern.LOWER_INCL
    if Property.UPPER_TRIANGULAR in s:
        return StoredPattern.UPPER_INCL
    return StoredPattern.FULL


def _closure_table() -> dict[Members, PropertySet]:
    """Every subset of Property -> the one canonical instance of its closure."""
    canonical: dict[Members, PropertySet] = {}
    table: dict[Members, PropertySet] = {}
    for size in range(len(Property) + 1):
        for subset in combinations(Property, size):
            closed = _close(subset)
            if closed not in canonical:
                canonical[closed] = PropertySet(closed)
            table[frozenset(subset)] = canonical[closed]
    return table


_CLOSURE = _closure_table()
_CANONICAL = {c.members: c for c in _CLOSURE.values()}  # the 5 closed sets
_GENERATORS = {m: _search_generators(c) for m, c in _CANONICAL.items()}
_RENDERED = {m: "[" + ",".join(str(p) for p in g) + "]"
             for m, g in _GENERATORS.items()}
_PATTERN = {m: _pattern_rule(m) for m in _CANONICAL}
_TRANSPOSE = {m: _CLOSURE[_transpose_rule(m)] for m in _CANONICAL}
_SQUARE_MUL = {(a, b): _CLOSURE[_square_mul_rule(a, b)]
               for a in _CANONICAL for b in _CANONICAL}
_ADD = {(a, b): _CLOSURE[a & b] for a in _CANONICAL for b in _CANONICAL}

EMPTY_PROPS = PropertySet.closure(())
DIAGONAL_PROPS = PropertySet.closure((Property.DIAGONAL,))


def canonicalize(declared: Iterable[str], rows: int, cols: int) -> PropertySet:
    """Map declared property names to the closed canonical set.

    All four properties require a square matrix; symmetry is included in the
    check because a rectangular symmetric type would be unrepresentable.
    """
    props = []
    for name in declared:
        if name not in DECLARED_NAMES:
            raise UnknownProperty(f"unknown property {name!r}")
        props.append(DECLARED_NAMES[name])
    if props and rows != cols:
        raise NonSquareStructuralProperty(
            f"property {props[0]} requires a square matrix, got {rows}x{cols}")
    return PropertySet.closure(props)


def infer_transpose(s: PropertySet) -> PropertySet:
    """Swap lower and upper triangularity; diagonal and symmetric are kept."""
    return _TRANSPOSE[s.members]


def infer_mul(a: PropertySet, dims_a: tuple[int, int],
              b: PropertySet, dims_b: tuple[int, int]) -> PropertySet:
    """Properties of a product: triangularity survives only when shared by two
    square operands; diagonal and symmetric arise only through closure."""
    if dims_a[0] == dims_a[1] and dims_b[0] == dims_b[1]:
        return _SQUARE_MUL[a.members, b.members]
    return EMPTY_PROPS


def infer_add(a: PropertySet, b: PropertySet) -> PropertySet:
    """Properties of a sum: the intersection (closed for this universe)."""
    return _ADD[a.members, b.members]


def stored_pattern(s: PropertySet) -> StoredPattern:
    """Structural-nonzero region of a property set; symmetry alone stores full."""
    return _PATTERN[s.members]
