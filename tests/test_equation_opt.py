"""Type resolution with identity simplification, rematerialization."""

import dataclasses
import random

import numpy as np
import pytest

from momc import equation_opt as eo
from momc import ir
from momc.equation_opt import AddN, Leaf, MulN, Trans
from momc.errors import ResolutionError
from momc.executor import ExecMode
from momc.properties import ElemKind, EMPTY_PROPS, Property, PropertySet, infer_mul

from gen import default_seed, random_program
from util import compile_text, optimize_text, run_text

LOWER = PropertySet.closure((Property.LOWER_TRIANGULAR,))
UPPER = PropertySet.closure((Property.UPPER_TRIANGULAR,))


def first_equation(m):
    return next(op for op in m.ops if isinstance(op, ir.Equation))


def resolved_first(text, drop_identities=False):
    m = compile_text(text)
    return eo.resolve_types(first_equation(m), m.types.__getitem__,
                            drop_identities), m


def test_resolve_listing_equation():
    e, _ = resolved_first("n = 5\nMatrix A(n, n) <LowerTriangular>\n"
                          "Matrix B(n, n) <LowerTriangular>\nC = A * B\n")
    assert isinstance(e, MulN)
    assert [type(c) for c in e.children] == [Leaf, Leaf]


def test_resolve_splices_nested_muls():
    # Hand-built region with mul(mul(a, b), c).
    t = ir.MatrixType(2, 2, ElemKind.F32, EMPTY_PROPS)
    m = ir.IRModule(
        ops=(ir.Init(0), ir.Init(1), ir.Init(2),
             ir.Equation(5, (ir.Mul(3, (0, 1)), ir.Mul(4, (3, 2))), 4)),
        types={0: t, 1: t, 2: t, 3: ir.TERM, 4: ir.TERM, 5: ir.TERM})
    assert ir.verify(m) == []
    for drop_identities in (False, True):
        e = eo.resolve_types(m.ops[3], m.types.__getitem__, drop_identities)
        assert isinstance(e, MulN) and len(e.children) == 3
        assert all(isinstance(c, Leaf) for c in e.children)
        assert e.type == t


def test_resolve_bare_copy():
    e, _ = resolved_first("Matrix A(2, 2) <>\nC = A\n")
    assert e == Leaf(0, ir.MatrixType(2, 2, ElemKind.F32, EMPTY_PROPS))


def test_resolve_deep_region_without_recursion():
    # Each op takes the previous one, and no op has an operand of its own
    # kind, so the tree is as deep as the region is long.
    t = ir.MatrixType(2, 2, ElemKind.F32, EMPTY_PROPS)
    depth = 5000
    region, prev = [], 0
    for v in range(2, depth + 2):
        region.append((ir.Add(v, (prev, 1)), ir.Transpose(v, prev),
                       ir.Mul(v, (prev, 1)))[v % 3])
        prev = v
    eq = ir.Equation(depth + 2, tuple(region), prev)
    types = {v: ir.TERM for v in range(2, depth + 3)}
    m = ir.IRModule((ir.Init(0), ir.Init(1), eq), {0: t, 1: t, **types})
    assert ir.verify(m) == []
    e = eo.resolve_types(eq, m.types.__getitem__, drop_identities=True)
    assert e.type == t
    levels = 0
    while not isinstance(e, Leaf):
        e = e.child if isinstance(e, Trans) else e.children[0]
        levels += 1
    assert levels == depth


def simplify_program(text):
    return resolved_first(text, drop_identities=True)


IDENTITY_PROGRAM = """\
n = 4
Matrix A(n, n) <>
Identity I(n)
{stmt}
"""


def test_simplify_drops_identity_factor():
    e, _ = simplify_program(IDENTITY_PROGRAM.format(stmt="C = A * I"))
    assert isinstance(e, Leaf) and e.value == 0


def test_simplify_identity_times_identity():
    e, m = simplify_program(IDENTITY_PROGRAM.format(stmt="C = I * I"))
    assert isinstance(e, Leaf)
    assert m.types[e.value].identity


def test_simplify_interior_identity():
    e, _ = simplify_program(
        "n = 4\nMatrix A(n, n) <>\nIdentity I(n)\nMatrix B(n, n) <>\n"
        "C = A * I * B\n")
    assert isinstance(e, MulN) and len(e.children) == 2
    assert [c.value for c in e.children] == [0, 2]


def test_simplify_transposed_identity():
    e, _ = simplify_program(IDENTITY_PROGRAM.format(stmt="C = transpose(I)"))
    assert isinstance(e, Leaf) and e.value == 1


def simplifiable(e):
    """Whether some node of a resolved tree still has an operand that
    identity elimination removes or splices in."""
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Trans):
            if e.child.type.identity:
                return True
            stack.append(e.child)
        elif isinstance(e, (MulN, AddN)):
            for c in e.children:
                if isinstance(c, type(e)) or isinstance(e, MulN) and c.type.identity:
                    return True
            stack.extend(e.children)
    return False


def test_simplify_is_a_fixpoint():
    """After simplification no product has an identity or product operand,
    no sum has a sum operand and no transpose is of an identity."""
    texts = ["n = 4\nMatrix A(n, n) <>\nIdentity I(n)\n"
             "C = A * I * Identity(n)\n"
             "D = A * transpose(transpose(I)) * transpose(I * I)\n"
             "print(transpose(I * Identity(n)) + A * (I + A) * I)\n"]
    rng = random.Random(default_seed() ^ 0x8B)
    texts += [random_program(rng, max_dim=4) for _ in range(300)]
    changed = 0
    for text in texts:
        m = compile_text(text)
        # An earlier result's leaf has the type the optimizer gives it.
        resolved_types = {}

        def leaf_type(v):
            return resolved_types.get(v, m.types[v])

        for eq in (op for op in m.ops if isinstance(op, ir.Equation)):
            kept = eo.resolve_types(eq, leaf_type)
            once = eo.resolve_types(eq, leaf_type, drop_identities=True)
            assert not simplifiable(once)
            changed += simplifiable(kept)
            resolved_types[eq.result] = once.type
    assert changed > 0  # the programs do exercise the simplification


def test_interior_identity_is_semantically_neutral():
    base = ("n = 4\nMatrix A(n, n) <> = 3\nMatrix B(n, n) <LowerTriangular> = 2\n"
            "Identity I(n)\n")
    with_id = run_text(base + "C = A * I * B\nprint(C)\n")
    without = run_text(base + "C = A * B\nprint(C)\n")
    assert with_id.printed == without.printed


def resolved(text):
    return simplify_program(text)[0]


def test_resolve_product_of_lower_triangulars():
    e = resolved("n = 5\nMatrix A(n, n) <LowerTriangular>\n"
                 "Matrix B(n, n) <LowerTriangular>\nC = A * B\n")
    assert e.type == ir.MatrixType(5, 5, ElemKind.F32, LOWER)


def test_resolve_transpose_flips_triangularity():
    e = resolved("n = 5\nMatrix A(n, n) <LowerTriangular>\n"
                 "C = transpose(A)\n")
    assert e.type == ir.MatrixType(5, 5, ElemKind.F32, UPPER)


def test_resolve_add_intersects_properties():
    e = resolved("n = 5\nMatrix A(n, n) <LowerTriangular>\nMatrix B(n, n) <>\n"
                 "C = A + B\n")
    assert e.type == ir.MatrixType(5, 5, ElemKind.F32, EMPTY_PROPS)


def test_resolve_rejects_mixed_elem_kinds():
    with pytest.raises(ResolutionError):
        resolved("n = 2\nMatrix A(n, n) <>\nMatrix B(n, n) <> : f64\n"
                 "C = A * B\n")


def test_resolution_rejects_what_it_cannot_type():
    m = compile_text("Matrix A(2, 2) <>\nC = A * A\n")
    with pytest.raises(ResolutionError, match="placeholder term"):
        eo.resolve_types(first_equation(m), lambda v: ir.TERM)
    t = ir.MatrixType(2, 2, ElemKind.F32, EMPTY_PROPS)
    top = ir.IRModule((ir.Init(0), ir.Mul(1, (0, 0))), {0: t, 1: t})
    with pytest.raises(ResolutionError, match="containing Mul"):
        eo.optimize_and_rematerialize(top)


def test_resolve_checks_declared_target_dims():
    text = ("Matrix A(2, 3) <>\nMatrix B(3, 4) <>\nMatrix C(9, 9) <>\n"
            "C = A * B\n")
    with pytest.raises(ResolutionError):
        optimize_text(text)


BENCH = """\
Matrix A1(800, 1100) <>
Matrix A2(1100, 900) <>
Matrix A3(900, 1200) <>
Matrix A4(1200, 100) <>
X = A1 * A2 * A3 * A4
print(X)
"""


def test_rematerialize_bench_chain_right_associated():
    res = optimize_text(BENCH)
    muls = [op for op in res.module.ops if isinstance(op, ir.Mul)]
    assert len(muls) == 3
    assert all(len(op.operands) == 2 for op in muls)
    # Right-associated: mul(A3, A4), then mul(A2, .), then mul(A1, .).
    assert muls[0].operands == (2, 3)
    assert muls[1].operands == (1, muls[0].result)
    assert muls[2].operands == (0, muls[1].result)
    (report,) = res.chains
    assert report.solution.total_cost == 295_000_000
    assert report.baseline_cost == 1_752_000_000


def test_rematerialize_two_operand_mul_unchanged():
    res = optimize_text("Matrix A(2, 3) <>\nMatrix B(3, 2) <>\nC = A * B\n")
    muls = [op for op in res.module.ops if isinstance(op, ir.Mul)]
    assert len(muls) == 1 and muls[0].operands == (0, 1)


def test_rematerialize_add_folds_left():
    res = optimize_text("n = 3\nMatrix A(n, n) <>\nMatrix B(n, n) <>\n"
                        "Matrix C(n, n) <>\nD = A + B + C\n")
    adds = [op for op in res.module.ops if isinstance(op, ir.Add)]
    assert len(adds) == 2
    assert adds[0].operands == (0, 1)
    assert adds[1].operands == (adds[0].result, 2)


def test_leaf_equation_emits_no_ops_and_retargets_print():
    res = optimize_text("Matrix A(2, 2) <>\nC = A\nprint(C)\n")
    kinds = [type(op) for op in res.module.ops]
    assert kinds == [ir.Init, ir.Fill, ir.Print]
    assert res.module.ops[2].operand == 0


def test_no_opt_keeps_source_order_and_identities():
    text = ("n = 3\nMatrix A(n, n) <>\nIdentity I(n)\nMatrix B(n, n) <>\n"
            "C = A * I * B\nprint(C)\n")
    res = optimize_text(text, opt=False)
    muls = [op for op in res.module.ops if isinstance(op, ir.Mul)]
    assert len(muls) == 2  # identity not eliminated, left fold
    assert muls[0].operands == (0, 1)


def test_print_type_is_rewritten_after_resolution():
    res = optimize_text("n = 5\nMatrix A(n, n) <LowerTriangular>\n"
                        "Matrix B(n, n) <LowerTriangular>\nC = A * B\nprint(C)\n")
    dump = ir.print_ir(res.module)
    assert "print %2 : matrix<5x5xf32,[lowerTri]>" in dump


@pytest.mark.parametrize("opt", [True, False])
def test_emitted_types_equal_inferred_types(monkeypatch, opt):
    """Emitted products read their properties from the DP cells: the product
    of operands i..j of a chain has `solution.props[i][j]` and the dims
    `chain[i].rows` x `chain[j].cols`, which also agree with inference from
    the product's operand types."""
    expected = []  # (rows, cols, props) of each product, in emission order
    unread = []    # trees handed to the emitter that it has not read yet
    solved = []    # the chain solved last and its solution
    solve, fold = eo.optimal_parenthesization, eo.left_fold_tree

    class EmittedTree:
        """A chain's tree that records each product's expected type as the
        emitter reads the product's span: it appends one product per inner
        span before it reads the next span. The first `skip` walks are not
        emission and record nothing."""

        def __init__(self, tree, chain, sol, skip=0):
            self.tree, self.chain, self.sol, self.skip = tree, chain, sol, skip
            unread.append(self)

        def __iter__(self):
            if self.skip:
                self.skip -= 1
                yield from self.tree
                return
            unread.remove(self)
            for i, j in self.tree:
                if i < j:
                    expected.append((self.chain[i].rows, self.chain[j].cols,
                                     self.sol.props[i][j]))
                yield i, j

    def recording_solve(chain):
        sol = solve(chain)
        if opt:
            return dataclasses.replace(sol, tree=EmittedTree(sol.tree, chain, sol))
        solved.append((chain, sol))
        return sol

    def recording_fold(length):
        # Without reordering the emitter reads the source-order tree, after
        # `tree_cost` has walked it to price it.
        return EmittedTree(fold(length), *solved.pop(), skip=1)

    monkeypatch.setattr(eo, "optimal_parenthesization", recording_solve)
    if not opt:
        monkeypatch.setattr(eo, "left_fold_tree", recording_fold)
    rng = random.Random(default_seed() ^ 0x7A)
    for _ in range(200):
        expected.clear()
        res = optimize_text(random_program(rng, max_dim=8), opt=opt)
        types = res.module.types
        muls = [op for op in res.module.ops if isinstance(op, ir.Mul)]
        for op in muls:
            ta, tb = (types[v] for v in op.operands)
            assert types[op.result] == ir.MatrixType(
                ta.rows, tb.cols, ta.elem,
                infer_mul(ta.props, (ta.rows, ta.cols), tb.props, (tb.rows, tb.cols)))
        got = [(types[op.result].rows, types[op.result].cols, types[op.result].props)
               for op in muls]
        assert got == expected
        assert not unread


def test_optimized_modules_verify_clean():
    rng = random.Random(default_seed() ^ 0x5E)
    for _ in range(25):
        res = optimize_text(random_program(rng))
        assert ir.verify(res.module) == []


def test_semantic_preservation_on_random_programs():
    rng = random.Random(default_seed() ^ 0x6F)
    for _ in range(25):
        text = random_program(rng, max_dim=8)
        with_opt = run_text(text, opt=True)
        without = run_text(text, opt=False)
        assert with_opt.printed == without.printed


def _printed_array(printed: str) -> np.ndarray:
    return np.array([[float(x) for x in line.split()]
                     for line in printed.splitlines()[1:]])


@pytest.mark.parametrize("props,mode", [
    ("LowerTriangular", ExecMode.DENSE),
    ("LowerTriangular", ExecMode.SPECIALIZED),
    ("", ExecMode.DENSE),
])
def test_reused_result_compiles_and_runs(props, mode):
    text = (f"Matrix A(3, 3) <{props}> = 2\n"
            "B = A * A\nC = B * A\nprint(B)\nprint(C)\n")
    a = np.full((3, 3), 2.0)
    if props:
        a = np.tril(a)
    report = run_text(text, mode)
    assert len(report.printed) == 2
    np.testing.assert_array_equal(_printed_array(report.printed[0]), a @ a)
    np.testing.assert_array_equal(_printed_array(report.printed[1]), a @ a @ a)
