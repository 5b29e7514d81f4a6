"""Chain DP against its naive reference, its two scans against each other,
deep trees without recursion, and the DP's pattern lookups and property
inferences per cell."""

import random
import sys

import numpy  # noqa: F401  (loaded, as the numpy scan needs)
import pytest

from momc import chain as chain_mod
from momc import equation_opt
from momc.chain import (
    NUMPY_MIN_LENGTH,
    _build,
    _numpy_scan,
    _python_scan,
    left_fold_tree,
    optimal_parenthesization,
    tree_cost,
)
from momc.ir import MatrixType
from momc.properties import EMPTY_PROPS, ElemKind, StoredPattern, stored_pattern

from chain_reference import reference_parenthesization, tree_props
from gen import CLOSED_PSETS, default_seed, random_chain, run_chain
from util import load_programs, optimize_text

FIELDS = ("cost", "split", "props", "tree", "total_cost")


def assert_same(sol, ref):
    for field in FIELDS:
        assert getattr(sol, field) == getattr(ref, field), field


def assert_matches_reference(chain, scan=optimal_parenthesization):
    sol = scan(chain)
    assert_same(sol, reference_parenthesization(chain))
    return sol


def assert_scans_agree(chain):
    sol = _python_scan(chain)
    assert_same(_numpy_scan(chain), sol)
    return sol


def square_chain(n, props):
    return [MatrixType(n, n, ElemKind.F64, p) for p in props]


def test_dp_tables_match_naive_reference():
    rng = random.Random(default_seed() ^ 0x6F)
    for _ in range(100):
        assert_matches_reference(random_chain(rng, min_len=1, max_len=30))


def test_long_chains_of_structured_runs_match_naive_reference():
    """Chains like chain-dp's: most splits have a full operand on one side
    and rectangular steps make m, k and n differ."""
    rng = random.Random(default_seed() ^ 0x3C)
    chains = [run_chain(rng, rng.randint(40, 60)) for _ in range(12)]
    assert any(op.rows == op.cols == 1 for chain in chains for op in chain)
    for chain in chains:
        assert_matches_reference(chain, _python_scan)
        assert_matches_reference(chain, _numpy_scan)


def test_scans_agree_on_the_benchmark_workloads(monkeypatch):
    """Every chain the optimizer solves for perfbench's three workloads at
    seeds 1-3, timed and untimed programs alike."""
    chains = []

    def recorded(chain):
        chains.append(chain)
        return optimal_parenthesization(chain)

    monkeypatch.setattr(equation_opt, "optimal_parenthesization", recorded)
    programs = load_programs()
    for workload in ("chain-dp", "kernels", "many-stmts"):
        for seed in (1, 2, 3):
            for p in programs.generate(workload, seed)[1]:
                optimize_text(p.text)
    assert sorted({len(c) for c in chains})[-3:] == [50, 70, 90]
    for chain in chains:
        assert_scans_agree(chain)


def test_scans_agree_on_runs_of_structure_up_to_the_grammar_limit():
    rng = random.Random(default_seed() ^ 0x5E)
    dim_sets = ((1, 2, 3, 4, 8, 16), (2, 4, 8, 16), (5, 50, 500))
    for k in [1, 2, 3, 5, 8, 13, 21, 31, 32, 33, 47, 64, 100, 128, 200, 256]:
        assert_scans_agree(run_chain(rng, k, dim_sets[k % 3]))


def test_scans_agree_on_random_chains():
    rng = random.Random(default_seed() ^ 0x91)
    for _ in range(150):
        assert_scans_agree(random_chain(rng, min_len=1, max_len=70))


def test_scans_agree_on_ties():
    """Equal dims make many splits cost the same; both scans must keep the
    smallest. An all-FULL chain ties on every split of every cell, and an
    all-lower-triangular one prices every split of two structured operands,
    in the numpy scan from its size table."""
    rng = random.Random(default_seed() ^ 0x77)
    full, lower, upper, _, diag = CLOSED_PSETS
    for k in (2, 3, 7, NUMPY_MIN_LENGTH, 60):
        for n in (1, 2, 9):
            assert_scans_agree(square_chain(n, [rng.choice(CLOSED_PSETS)
                                                for _ in range(k)]))
            assert_scans_agree(square_chain(n, [lower] * k))
            assert assert_scans_agree(square_chain(n, [full] * k)).split[0][k - 1] == 0
    k = 128
    for props in ([lower] * k, [upper] * k, [diag] * k,
                  [rng.choice(CLOSED_PSETS) for _ in range(k)]):
        chain = square_chain(9, props)
        assert_structured_cells_are_square_runs(chain, assert_scans_agree(chain))


def assert_structured_cells_are_square_runs(chain, sol):
    """A cell that does not store full spans square operands of one size,
    the fact that lets the numpy scan price two such cells by their size."""
    for i, row in enumerate(sol.props):
        for j in range(i, len(chain)):
            if stored_pattern(row[j]) is not StoredPattern.FULL:
                n = chain[i].rows
                assert all(op.rows == op.cols == n for op in chain[i:j + 1])


def test_structured_cells_span_square_operands_of_one_size():
    rng = random.Random(default_seed() ^ 0x2D)
    chains = [run_chain(rng, rng.randint(1, 90)) for _ in range(20)]
    chains += [random_chain(rng, min_len=1, max_len=40) for _ in range(40)]
    products = 0  # structured cells that are products, not operands
    for chain in chains:
        sol = _numpy_scan(chain)
        assert_structured_cells_are_square_runs(chain, sol)
        products += sum(stored_pattern(p) is not StoredPattern.FULL
                        for i, row in enumerate(sol.props) for p in row[i + 1:])
    assert products > 0


def test_the_numpy_scan_prices_each_size_of_structured_cell_once(monkeypatch):
    """`pattern_cost` fills the numpy scan's table, at most 9 calls (three
    structured patterns on each side) per distinct dim, all square; no split
    is priced one at a time in Python."""
    calls = []

    def spy(m, k, n, pa, pb):
        calls.append((m, k, n))
        return real(m, k, n, pa, pb)

    real = chain_mod.pattern_cost
    monkeypatch.setattr(chain_mod, "pattern_cost", spy)
    rng = random.Random(default_seed() ^ 0x4B)
    lower = CLOSED_PSETS[1]
    for chain in ([run_chain(rng, 128)] + [run_chain(rng, 60) for _ in range(5)]
                  + [square_chain(9, [lower] * 128)]):
        calls.clear()
        _numpy_scan(chain)
        assert calls and all(m == k == n and m in {op.rows for op in chain}
                             for m, k, n in calls)
        assert max(calls.count(c) for c in calls) <= 9


def test_costs_past_two_to_the_63_stay_exact(monkeypatch):
    """Dims have no limit, so costs are Python ints: a fixed-width or float
    DP would wrap or round these tables. The chain is long enough for the
    numpy scan, and numpy is loaded, but its dims fail the int64 guard."""
    n = 10 ** 7
    lower, upper, symm, diag = CLOSED_PSETS[1:]
    shapes = [(n + 3, n, EMPTY_PROPS), (n, n + 1, EMPTY_PROPS),
              (n + 1, n + 1, lower), (n + 1, n + 1, lower),
              (n + 1, n + 1, diag), (n + 1, n - 2, EMPTY_PROPS),
              (n - 2, n - 2, upper), (n - 2, n - 2, symm),
              (n - 2, n + 7, EMPTY_PROPS), (n + 7, n + 7, upper)]
    shapes += [(n + 7, n + 7, CLOSED_PSETS[i % 5])
               for i in range(NUMPY_MIN_LENGTH + 5 - len(shapes))]
    chain = [MatrixType(r, c, ElemKind.F64, p) for r, c, p in shapes]
    assert "numpy" in sys.modules and len(chain) >= NUMPY_MIN_LENGTH
    monkeypatch.setattr(chain_mod, "_numpy_scan", None)  # fails if called
    sol = assert_matches_reference(chain)
    assert sol.total_cost > 2 ** 63
    assert sol.cost[0][1] == (n + 3) * n * (n + 1)
    assert sol.cost[2][3] == (n + 1) * (n + 2) * (n + 3) // 6
    assert all(type(c) is int for row in sol.cost for c in row if c is not None)


@pytest.mark.parametrize("k,dim,numpy_loaded,scan", [
    (NUMPY_MIN_LENGTH - 1, 16, True, "_python_scan"),
    (NUMPY_MIN_LENGTH, 16, True, "_numpy_scan"),
    (NUMPY_MIN_LENGTH, 16, False, "_python_scan"),
    (256, 2 ** 18 - 1, True, "_numpy_scan"),  # 2^8 * dim^3 < 2^62
    (256, 2 ** 18, True, "_python_scan"),  # 2^8 * dim^3 = 2^62
])
def test_the_numpy_scan_runs_on_long_chains_when_numpy_is_loaded_and_int64_fits(
        monkeypatch, k, dim, numpy_loaded, scan):
    ran = []
    for name in ("_python_scan", "_numpy_scan"):
        monkeypatch.setattr(chain_mod, name, lambda chain, _name=name: ran.append(_name))
    if not numpy_loaded:
        monkeypatch.delitem(sys.modules, "numpy")
    chain = [MatrixType(dim, dim, ElemKind.F64, EMPTY_PROPS)] * k
    optimal_parenthesization(chain)
    assert ran == [scan]


def test_the_numpy_scan_keeps_costs_exact_just_inside_the_guard():
    """k * dim^3 is just under 2^60: costs pass 2^59, where a float64 DP
    would round."""
    k, n = 64, 2 ** 18 - 3
    chain = [MatrixType(n, n, ElemKind.F64, EMPTY_PROPS)] * (k - 1) \
        + [MatrixType(n, n - 1, ElemKind.F64, EMPTY_PROPS)]
    sol = assert_scans_agree(chain)
    assert sol.total_cost == (k - 1) * n * n * (n - 1) > 2 ** 59
    assert sol.total_cost != int(float(sol.total_cost))


def test_tree_walks_do_not_recurse():
    k = 3000
    chain = [MatrixType(2, 2, ElemKind.F32, EMPTY_PROPS)] * k
    tree = left_fold_tree(k)
    assert tree_cost(tree, chain) == (k - 1) * 8
    assert tree_props(tree, chain) == EMPTY_PROPS


def test_build_does_not_recurse():
    class Row:
        def __getitem__(self, j):
            return j - 1

    class Splits:
        def __getitem__(self, i):
            return Row()

    assert _build(Splits(), 3000) == left_fold_tree(3000)


def folded_cells(props):
    """Cells up to and including each row's first `EMPTY_PROPS` cell, which
    absorbs under `infer_mul`, so the rest of its row is `EMPTY_PROPS`."""
    total = 0
    for i, row in enumerate(props):
        tail = row[i:]
        total += tail.index(EMPTY_PROPS) + 1 if EMPTY_PROPS in tail else len(tail)
    return total


@pytest.mark.parametrize("scan", [_python_scan, _numpy_scan])
def test_dp_looks_up_one_pattern_per_cell(monkeypatch, scan):
    """Through the names perfbench's tracer counts: both scans read one fold
    of the chain's properties, which calls `stored_pattern` once per cell up
    to and including its row's first `EMPTY_PROPS` cell (the leaf too) and
    `infer_mul` once per such product cell, and neither ever after."""
    k = 60
    rng = random.Random(default_seed() ^ 0x7A)
    chains = [random_chain(rng, min_len=k, max_len=k), run_chain(rng, k)]
    expected = [folded_cells(reference_parenthesization(chain).props)
                for chain in chains]
    assert max(expected) < k * (k + 1) // 2
    calls = {"stored_pattern": 0, "infer_mul": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(chain_mod, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(chain_mod, name, counted)
    for chain, cells in zip(chains, expected):
        calls.update(stored_pattern=0, infer_mul=0)
        scan(chain)
        assert calls == {"stored_pattern": cells, "infer_mul": cells - k}
