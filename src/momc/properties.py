"""Matrix structure properties: closed property sets, inference rules, stored patterns.

A property set is closed under three rules:

  C1: lowerTri and upperTri together imply diag
  C2: diag implies lowerTri, upperTri and symm
  C3: lowerTri or upperTri together with symm implies diag (a triangular
      matrix equal to its transpose has no nonzero off the diagonal)

Only 5 of the 16 subsets of `Property` are closed, and this module writes
them down as literal `PropertySet` instances, each carrying its members, its
minimal generators (what `render` prints) and its stored pattern. Every set a
program can hold is one of the five, so equality is identity. Closure and
the inference rules are set operations over the five values: the closure of
any subset is the smallest of them that contains it, a sum keeps the
intersection, a square product keeps the shared triangularity, and a
transpose swaps lower and upper. `tests/test_properties.py` derives the five
sets and every rule from C1-C3 by a fixpoint and checks them against these
values.

`ElemKind` and `StoredPattern` hash by identity, as `PropertySet` does:
their members are singletons that compare by identity, and `Enum.__hash__`
runs in Python, while a `MatrixType`'s hash and every `ir.matrix_type`
lookup hash an `ElemKind`. So their hashes, unlike their values, differ
from one process to the next, and no output may depend on them
(`tests/test_cli.py` compares the dumps of two interpreters).

Inference is deliberately conservative: a rule may return fewer properties
than are mathematically derivable, never more. Soundness is what the cost
model and the fill semantics depend on, and it is what the brute-force tests
check.
"""

from __future__ import annotations

import enum
from itertools import combinations
from typing import Iterable

from .errors import NonSquareStructuralProperty, UnknownProperty
from .record import Record


class ElemKind(enum.Enum):
    """IEEE-754 element type of stored entries."""

    F32 = "f32"
    F64 = "f64"
    __hash__ = object.__hash__  # members are singletons: see the module docstring

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


# Surface (declaration) spellings accepted by the frontend.
DECLARED_NAMES = {
    "LowerTriangular": Property.LOWER_TRIANGULAR,
    "UpperTriangular": Property.UPPER_TRIANGULAR,
    "Diagonal": Property.DIAGONAL,
    "Symmetric": Property.SYMMETRIC,
}


class StoredPattern(enum.Enum):
    """Structural-nonzero region implied by a property set, over 0-based (i, j)."""

    FULL = "full"
    LOWER_INCL = "lowerIncl"
    UPPER_INCL = "upperIncl"
    DIAG_ONLY = "diagOnly"
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class PropertySet(Record):
    """One of the five closed property sets below; equality is identity.

    `generators` is the smallest subset whose closure is `members`, in
    `Property` order, and `pattern` the region the set stores.
    """

    __slots__ = ("members", "generators", "pattern")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, members: frozenset[Property], generators: tuple[Property, ...],
                 pattern: StoredPattern) -> None:
        self.members = members
        self.generators = generators
        self.pattern = pattern

    @staticmethod
    def closure(props: Iterable[Property]) -> "PropertySet":
        """The smallest of the five sets that contains `props`."""
        return _CLOSURE[frozenset(props)]

    def __contains__(self, p: Property) -> bool:
        return p in self.members

    def render(self) -> str:
        """Bracketed minimal-generator form used in IR dumps, e.g. `[lowerTri]`."""
        return "[" + ",".join(p.value for p in self.generators) + "]"

    __str__ = render


_L, _U = Property.LOWER_TRIANGULAR, Property.UPPER_TRIANGULAR

EMPTY_PROPS = PropertySet(frozenset(), (), StoredPattern.FULL)
_LOWER = PropertySet(frozenset({_L}), (_L,), StoredPattern.LOWER_INCL)
_UPPER = PropertySet(frozenset({_U}), (_U,), StoredPattern.UPPER_INCL)
_SYMM = PropertySet(frozenset({Property.SYMMETRIC}), (Property.SYMMETRIC,),
                    StoredPattern.FULL)
DIAGONAL_PROPS = PropertySet(frozenset(Property), (Property.DIAGONAL,),
                             StoredPattern.DIAG_ONLY)
_SETS = (EMPTY_PROPS, _LOWER, _UPPER, _SYMM, DIAGONAL_PROPS)  # by size

# Every subset of Property -> the smallest set above containing it. It is
# unique because the five sets are closed under intersection.
_CLOSURE = {frozenset(sub): next(s for s in _SETS if s.members >= set(sub))
            for n in range(len(Property) + 1)
            for sub in combinations(Property, n)}
_TRANSPOSE = {_LOWER: _UPPER, _UPPER: _LOWER}
_SQUARE_MUL = {(a, b): _CLOSURE[a.members & b.members & {_L, _U}]
               for a in _SETS for b in _SETS}
_ADD = {(a, b): _CLOSURE[a.members & b.members] for a in _SETS for b in _SETS}


def canonicalize(declared: Iterable[str], rows: int, cols: int) -> PropertySet:
    """Map declared property names to the closed canonical set.

    All four properties require a square matrix; symmetry is included in the
    check because a rectangular symmetric type would be unrepresentable.
    """
    if not declared:
        return EMPTY_PROPS  # most declarations are `<>`
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
    return _TRANSPOSE.get(s, s)


def infer_mul(a: PropertySet, dims_a: tuple[int, int],
              b: PropertySet, dims_b: tuple[int, int]) -> PropertySet:
    """Properties of a product: triangularity survives only when shared by two
    square operands; diagonal and symmetric arise only through closure."""
    if dims_a[0] == dims_a[1] and dims_b[0] == dims_b[1]:
        return _SQUARE_MUL[a, b]
    return EMPTY_PROPS


def infer_add(a: PropertySet, b: PropertySet) -> PropertySet:
    """Properties of a sum: the intersection (closed for this universe)."""
    return _ADD[a, b]


def stored_pattern(s: PropertySet) -> StoredPattern:
    """Structural-nonzero region of a property set; symmetry alone stores full."""
    return s.pattern
