import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from records import leaf_trees

import gsgp.exprtree as exprtree
from gsgp.data import split_70_30, synthetic_dataset
from gsgp.evolve import EvolutionConfig, run_evolution
from gsgp.exprtree import (
    CONSTANT_RANGE,
    DIV_EPS,
    MAX_TREE_DEPTH,
    OP_KINDS,
    P_CONSTANT,
    P_GROW_TERMINAL,
    BinaryOp,
    Columns,
    Constant,
    Program,
    Trees,
    Variable,
    eval_tree,
    eval_tree_many,
    gen_tree,
    ramp_schedule,
    tree_from_json,
    tree_to_json,
)


def generation_zero_trees(population_size, seed, n_features=2):
    """The ramped half-and-half trees run_evolution seeds, in slot order."""
    data = synthetic_dataset("polynomial", 20, n_features, 0.0, seed=1)
    cfg = EvolutionConfig(population_size=population_size, generations=0, seed=seed)
    archive = run_evolution(cfg, split_70_30(data, seed=2), keep_archive=True).archive
    return leaf_trees(archive.generations[0].packed)


def json_nodes(tree):
    """The node objects of a tree's JSON, root first, with their depths."""
    stack, nodes = [(tree_to_json(tree), 0)], []
    while stack:
        obj, depth = stack.pop()
        nodes.append((obj, depth))
        if "op" in obj:
            stack += [(obj["right"], depth + 1), (obj["left"], depth + 1)]
    return nodes


def leaf_depths(tree):
    return [depth for obj, depth in json_nodes(tree) if "op" not in obj]


def tree_depth(tree):
    return max(depth for _, depth in json_nodes(tree))


def node_count(tree):
    return len(json_nodes(tree))


def leaves(tree):
    """The {"const": c} and {"var": i} objects of a tree's JSON, left to right."""
    return [obj for obj, _ in json_nodes(tree) if "op" not in obj]


def nodes_from_json(obj):
    """The tree of `tree_to_json` output, built with the tree constructors."""
    if "const" in obj:
        return Constant(obj["const"])
    if "var" in obj:
        return Variable(obj["var"])
    return BinaryOp(obj["op"], nodes_from_json(obj["left"]), nodes_from_json(obj["right"]))


def test_depth_zero_forces_terminal(rng):
    trees = gen_tree(0, 3, [(0, "grow"), (0, "full")] * 20, rng)
    assert len(trees) == 40
    assert all(node_count(t) == 1 for t in trees)


def test_full_puts_every_leaf_at_max_depth(rng):
    for t in gen_tree(2, 2, [(2, "full")] * 50, rng):
        assert leaf_depths(t) == [2] * len(leaf_depths(t))


def test_full_never_exceeds_max_depth(rng):
    assert all(max(leaf_depths(t)) == 4 for t in gen_tree(4, 2, [(4, "full")] * 200, rng))


def test_full_leaves_sit_at_their_slot_depth(rng):
    # full and grow slots of every depth share one call on a depth-4 heap
    slots = [(depth, method) for depth in range(5) for method in ("full", "grow")] * 30
    for (depth, method), tree in zip(slots, gen_tree(4, 2, slots, rng)):
        if method == "full":
            assert leaf_depths(tree) == [depth] * 2**depth
        else:
            assert tree_depth(tree) <= depth


def test_grow_depth_distribution_covers_all_depths(rng):
    depths = [tree_depth(t) for t in gen_tree(4, 2, [(4, "grow")] * 10000, rng)]
    counts = {d: depths.count(d) for d in range(5)}
    assert set(depths) == {0, 1, 2, 3, 4}
    assert all(counts[d] > 0 for d in range(5))
    # the root is a terminal with probability P_GROW_TERMINAL
    assert counts[0] / len(depths) == pytest.approx(P_GROW_TERMINAL, abs=0.015)


def test_grow_mean_node_count_matches_its_law():
    # A node above depth 4 branches with probability 0.7 into two subtrees,
    # so E[nodes at depth d] = 1 + 1.4 * E[nodes at depth d + 1], from 1 at 4.
    expected = 1 + 1.4 * (1 + 1.4 * (1 + 1.4 * (1 + 1.4)))
    assert expected == pytest.approx(10.9456)
    trees = gen_tree(4, 2, [(4, "grow")] * 20000, np.random.default_rng(2024))
    assert np.mean([node_count(t) for t in trees]) == pytest.approx(expected, rel=0.01)


def test_constant_share_of_terminals(rng):
    terminals = [leaf for t in gen_tree(4, 3, [(4, "full")] * 500, rng) for leaf in leaves(t)]
    constants = [leaf["const"] for leaf in terminals if "const" in leaf]
    variables = [leaf["var"] for leaf in terminals if "var" in leaf]
    assert len(constants) / len(terminals) == pytest.approx(P_CONSTANT, abs=0.01)
    assert all(CONSTANT_RANGE[0] <= c < CONSTANT_RANGE[1] for c in constants)
    assert np.mean(constants) == pytest.approx(0.0, abs=0.02)
    assert set(variables) == {0, 1, 2}


def test_grow_respects_max_depth(rng):
    assert all(tree_depth(t) <= 3 for t in gen_tree(3, 2, [(3, "grow")] * 500, rng))


def test_ramp_schedule_splits_methods_evenly():
    slots = ramp_schedule(4, 100)
    assert len(slots) == 100
    methods = [m for _, m in slots]
    assert methods.count("grow") == 50
    assert methods.count("full") == 50
    assert {d for d, _ in slots} == {2, 3, 4}


def test_ramp_schedule_odd_remainder_goes_to_grow():
    slots = ramp_schedule(4, 7)
    assert [m for _, m in slots].count("grow") == 4


def test_ramped_trees_match_their_slots():
    trees = generation_zero_trees(100, seed=7)
    for (depth, method), tree in zip(ramp_schedule(4, 100), trees):
        if method == "full":
            assert leaf_depths(tree) == [depth] * len(leaf_depths(tree))
        else:
            assert tree_depth(tree) <= depth


def test_ramped_single_tree():
    (tree,) = generation_zero_trees(1, seed=0)
    assert tree_depth(tree) <= 2  # slot 0 is grow at the lowest ramp depth


def test_ramped_low_max_depth_falls_back_to_grow():
    slots = ramp_schedule(1, 10)
    assert slots == [(1, "grow")] * 10


def test_ramped_same_seed_identical():
    a = generation_zero_trees(40, seed=5, n_features=3)
    assert generation_zero_trees(40, seed=5, n_features=3) == a
    assert generation_zero_trees(40, seed=6, n_features=3) != a


def test_eval_constant():
    assert eval_tree(Constant(3.5), [0.0, 1.0]) == 3.5


def test_eval_protected_division():
    t = BinaryOp("div", Constant(5.0), Constant(0.0))
    assert eval_tree(t, [0.0]) == 1.0
    near = BinaryOp("div", Constant(5.0), Constant(1e-10))
    assert eval_tree(near, [0.0]) == 1.0
    past = BinaryOp("div", Constant(5.0), Constant(1e-8))
    assert eval_tree(past, [0.0]) == 5e8


def test_eval_hand_arithmetic():
    t = BinaryOp("add", Variable(0), BinaryOp("mul", Variable(1), Constant(2.0)))
    assert eval_tree(t, [1.0, 3.0]) == 7.0


def test_eval_variable_out_of_range():
    for tree in (Variable(2), BinaryOp("add", Constant(1.0), Variable(2))):
        with pytest.raises(ValueError, match="out of range"):
            eval_tree(tree, [1.0, 2.0])
        with pytest.raises(ValueError, match="out of range"):
            eval_tree_many(tree, Columns(np.ones((3, 2))))
    program = tree_from_json({"var": 2}, 3)  # valid for 3 features, not for 2
    with pytest.raises(ValueError, match="out of range"):
        eval_tree(program, [1.0, 2.0])
    with pytest.raises(ValueError, match="out of range"):
        eval_tree_many(program, Columns(np.ones((3, 2))))


def test_a_hand_written_tree_is_checked_when_compiled():
    deep = Variable(0)
    for _ in range(MAX_TREE_DEPTH):
        deep = BinaryOp("add", deep, Constant(1.0))
    assert eval_tree(deep, [0.5]) == 10.5
    with pytest.raises(ValueError, match="deeper than MAX_TREE_DEPTH"):
        eval_tree_many(BinaryOp("add", deep, Constant(1.0)), Columns(np.ones((2, 1))))
    with pytest.raises(ValueError, match="unknown operator kind 'pow'"):
        eval_tree(BinaryOp("pow", Constant(2.0), Constant(3.0)), [0.0])
    with pytest.raises(ValueError, match="variable index -1 is negative"):
        Variable(-1)
    # Any tuple is a program, so (0,) is the program of variable 0.
    assert BinaryOp("add", (0,), Constant(1.0)) == (0, 1.0, "add")
    malformed = [
        1.0, 0, None, [0], (),  # not a tuple, or no node
        (True,), (-1,), (np.int64(0),), (np.float64(1.0),), ("pow",), (None,),  # bad nodes
        ("add",), (0, "add"), (0, 1), (0, 1, "add", "add"),  # wrong arity
    ]
    for operand in malformed:
        with pytest.raises(TypeError, match="is not a tree"):
            BinaryOp("add", Variable(0), operand)
        with pytest.raises(TypeError, match="is not a tree"):
            BinaryOp("add", operand, Variable(0))


def test_a_variable_index_is_an_int_not_a_bool():
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"variable index {flag} is a bool"):
            Variable(flag)
        with pytest.raises(ValueError, match=f"variable {flag} is not a feature index"):
            tree_from_json({"var": flag}, 2)
    program = Variable(np.int64(1))
    assert program == Program((1,)) and type(program[0]) is int


@pytest.mark.parametrize(
    "tree, n_features",
    [
        (Constant(2.5), 1),
        (Constant(np.float32(0.5)), 1),
        (Variable(0), 1),
        (Variable(np.int64(2)), 3),
        (BinaryOp("div", Variable(1), BinaryOp("mul", Constant(-1.0), Variable(0))), 2),
    ],
)
def test_the_constructors_make_programs(tree, n_features):
    assert type(tree) is Program
    assert not isinstance(tree, (Constant, Variable, BinaryOp))
    # tree_from_json takes only a plain int as a variable index.
    assert tree_from_json(tree_to_json(tree), n_features) == tree


def test_vectorized_eval_matches_scalar_loop(rng):
    X = rng.normal(size=(17, 3))
    columns = Columns(X)
    for t in gen_tree(4, 3, [(4, "grow")] * 50, rng):
        vec = eval_tree_many(t, columns)
        loop = np.array([eval_tree(t, row) for row in X])
        assert np.array_equal(vec, loop)


# Divisors at the protected-division threshold and the floats next to it.
_EDGES = [
    v
    for eps in (DIV_EPS, -DIV_EPS)
    for v in (eps, math.nextafter(eps, 0.0), math.nextafter(eps, 2 * eps))
] + [0.0, -0.0]
_FLOATS = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=False, allow_infinity=False),  # large enough to overflow
)


@st.composite
def trees_and_inputs(draw):
    """A tree, drawn by gen_tree or written by hand, and inputs for it."""
    n_features = draw(st.integers(1, 6))
    if draw(st.booleans()):
        depth = draw(st.integers(0, MAX_TREE_DEPTH))
        slot = (depth, draw(st.sampled_from(["grow", "full"])))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        (tree,) = gen_tree(depth, n_features, [slot], rng)
    else:
        # constant-only subtrees come up often among these
        leaf = st.one_of(
            st.builds(Constant, _FLOATS),
            st.builds(Variable, st.integers(0, n_features - 1)),
        )
        tree = draw(
            st.recursive(
                leaf,
                lambda sub: st.builds(BinaryOp, st.sampled_from(OP_KINDS), sub, sub),
                max_leaves=10,
            )
        )
    inputs = draw(arrays(float, (draw(st.integers(1, 4)), n_features), elements=_FLOATS))
    return tree, inputs


def same_bits(a, b):
    """Equal arrays, NaN matching NaN and every sign bit matching (-0.0 is not 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def nan_divisor(leaf):
    """leaf / (leaf * leaf - leaf * leaf): a NaN divisor once leaf * leaf overflows."""
    square = BinaryOp("mul", leaf, leaf)
    return BinaryOp("div", leaf, BinaryOp("sub", square, square))


@settings(max_examples=300)
@given(trees_and_inputs())
@example((nan_divisor(Variable(0)), np.array([[1e308], [2.0]])))
@example((nan_divisor(Constant(1e308)), np.array([[0.0]])))
def test_program_and_node_forms_evaluate_alike_and_round_trip(case):
    tree, X = case
    obj = tree_to_json(tree)
    program = tree_from_json(obj, X.shape[1])
    nodes = nodes_from_json(obj)
    assert tree_to_json(program) == tree_to_json(nodes) == obj
    assert program == tree
    c_order, f_order = Columns(X), Columns(np.asfortranarray(X))
    with np.errstate(all="ignore"):
        many = eval_tree_many(program, c_order)
        assert same_bits(many, [eval_tree(program, row) for row in X])
        assert same_bits(many, eval_tree_many(nodes, c_order))
        assert same_bits(many, [eval_tree(nodes, row) for row in X])
        # The archive stores its inputs column-major; the layout is not part of the value.
        assert same_bits(many, eval_tree_many(program, f_order))
        # The last operator writes into `out` itself.
        out = np.full(len(X), 7.0)
        assert eval_tree_many(program, f_order, out=out) is out
        assert same_bits(many, out)


_ABOVE_EPS = math.nextafter(DIV_EPS, 1.0)
# Column kinds for division: the entry planted at one row (None: none), and
# the range the other entries come from.
_COLUMN_KINDS = {
    "zero-free": (None, (1e-3, 2.0)),
    "zero": (0.0, (-2.0, 2.0)),
    "eps": (DIV_EPS, (-2.0, 2.0)),
    "minus-eps": (-DIV_EPS, (1e-3, 2.0)),
    "above-eps": (_ABOVE_EPS, (1e-3, 2.0)),
    "negative": (-_ABOVE_EPS, (-2.0, -1e-3)),
}


@st.composite
def division_cases(draw):
    """A tree with divisions, and inputs whose columns are of the kinds above."""
    rows = draw(st.integers(1, 5))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=4)):
        planted, (low, high) = _COLUMN_KINDS[kind]
        column = draw(st.lists(st.floats(low, high), min_size=rows, max_size=rows))
        if planted is not None:
            column[draw(st.integers(0, rows - 1))] = planted
        columns.append(column)
    n_features = len(columns)
    X = np.array(columns).T
    if draw(st.booleans()):
        depth = draw(st.integers(1, 6))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        (tree,) = gen_tree(depth, n_features, [(depth, "full")], rng)
    else:
        leaf = st.one_of(
            st.builds(Constant, st.floats(-2.0, 2.0)),
            st.builds(Variable, st.integers(0, n_features - 1)),
        )
        sub = st.recursive(
            leaf,
            lambda sub: st.builds(BinaryOp, st.sampled_from(OP_KINDS + ("div",) * 3), sub, sub),
            max_leaves=8,
        )
        tree = BinaryOp("div", draw(sub), draw(sub))
    return tree, X


@settings(max_examples=300)
@given(division_cases())
def test_prepared_columns_evaluate_as_the_matrix_and_the_row_loop(case):
    tree, X = case
    layouts = (Columns(X), Columns(np.asfortranarray(X)))
    with np.errstate(all="ignore"):
        prepared = eval_tree_many(tree, layouts[0])
        assert same_bits(prepared, [eval_tree(tree, row) for row in X])
        for columns in layouts:
            assert columns.safe == tuple(bool(np.all(np.abs(c) > DIV_EPS)) for c in X.T)
            assert same_bits(prepared, eval_tree_many(tree, columns))
            out = np.full(len(X), 7.0)
            assert eval_tree_many(tree, columns, out=out) is out
            assert same_bits(prepared, out)


def test_a_column_is_safe_only_strictly_above_div_eps():
    X = np.array([[DIV_EPS, _ABOVE_EPS, -DIV_EPS, -_ABOVE_EPS, 0.0, math.nan, 1.0]] * 2)
    columns = Columns(X)
    assert columns.safe == (False, True, False, True, False, False, True)
    assert all(v.base is not None and np.array_equal(v, c, equal_nan=True)
               for v, c in zip(columns.vectors, X.T))  # views, not copies
    div = [eval_tree_many(BinaryOp("div", Constant(2.0), Variable(j)), columns)[0]
           for j in range(len(columns.safe))]
    assert div == [1.0, 2.0 / _ABOVE_EPS, 1.0, -2.0 / _ABOVE_EPS, 1.0, 1.0, 2.0]


def test_a_computed_zero_divisor_gives_one():
    zero = BinaryOp("sub", Variable(0), Variable(0))
    tree = BinaryOp("div", Constant(3.0), zero)
    X = np.array([[1.0], [2.0], [-5.0]])
    columns = Columns(X)
    assert columns.safe == (True,)
    assert eval_tree_many(tree, columns).tolist() == [1.0, 1.0, 1.0]
    out = np.zeros(3)
    assert eval_tree_many(tree, columns, out=out).tolist() == [1.0, 1.0, 1.0]
    assert eval_tree(tree, [2.0]) == 1.0


def test_a_division_by_a_safe_column_skips_the_guard(monkeypatch):
    columns = Columns(np.array([[1.0, 0.0], [2.0, 3.0]]))
    guarded = []
    divide = exprtree._divide_rows  # the guard of a division by a row runs here
    monkeypatch.setattr(exprtree, "_divide_rows", lambda *a: guarded.append(1) or divide(*a))
    assert eval_tree_many(BinaryOp("div", Variable(1), Variable(0)), columns).tolist() == [0.0, 1.5]
    assert guarded == []
    assert eval_tree_many(BinaryOp("div", Variable(0), Variable(1)), columns).tolist() == [1.0, 2 / 3]
    assert guarded == [1]


# Inputs for hand-built guarded divisions: a dividend column, a divisor
# column with an entry within DIV_EPS of zero, a NaN, both infinities and
# -DIV_EPS, and a column with no entry near zero.
_GUARD_X = np.array([
    [1.5, DIV_EPS / 2, 2.0],
    [-2.0, math.nan, 3.0],
    [3.0, math.inf, -1.5],
    [0.25, -math.inf, 0.5],
    [5.0, -DIV_EPS, 4.0],
    [7.0, 2.0, -3.0],
])
_X0, _X1, _X2 = Variable(0), Variable(1), Variable(2)
_GUARDED_DIVISIONS = [
    BinaryOp("div", _X0, _X1),
    # The last operator divides an intermediate dividend, which lives in
    # the output row it writes to.
    BinaryOp("div", BinaryOp("mul", _X0, _X2), _X1),
    # An inner division of an intermediate dividend, in its own stack row.
    BinaryOp("add", _X2, BinaryOp("div", BinaryOp("sub", _X0, _X2), _X1)),
    BinaryOp("mul", BinaryOp("div", BinaryOp("add", _X0, _X0), _X1), _X2),
    # An intermediate divisor: x1 * x2 is exactly DIV_EPS on the first row.
    BinaryOp("div", BinaryOp("sub", _X2, _X0), BinaryOp("mul", _X1, _X2)),
    # x1 - x1 is 0.0 where x1 is finite and NaN where it is not.
    BinaryOp("div", BinaryOp("mul", _X0, _X2), BinaryOp("sub", _X1, _X1)),
    # Constant-only subtrees fold: to a zero divisor, a guarded 1.0 and a dividend.
    BinaryOp("div", BinaryOp("mul", _X0, _X2), BinaryOp("sub", Constant(0.5), Constant(0.5))),
    BinaryOp("mul", BinaryOp("div", Constant(2.0), Constant(1e-10)), _X0),
    BinaryOp("div", BinaryOp("mul", Constant(0.5), Constant(4.0)), _X1),
    BinaryOp("div", _X1, Constant(DIV_EPS)),
    BinaryOp("div", BinaryOp("div", _X1, _X0), _X2),  # x2 is safe: no guard
]


def test_guarded_divisions_match_the_row_loop_listed_and_alone():
    columns = Columns(np.asfortranarray(_GUARD_X))
    assert columns.safe == (True, False, True)
    rows = len(_GUARD_X)
    expected = [[eval_tree(p, x) for x in _GUARD_X] for p in _GUARDED_DIVISIONS]
    with np.errstate(all="ignore"):
        # Output rows start as 7.0, so no result can lean on what was there.
        out = np.full((len(_GUARDED_DIVISIONS), rows), 7.0)
        assert eval_tree_many(_GUARDED_DIVISIONS, columns, out) is out
        for program, want, listed in zip(_GUARDED_DIVISIONS, expected, out):
            assert same_bits(listed, want), program
            alone = np.full(rows, 7.0)
            assert eval_tree_many(program, columns, alone) is alone
            assert same_bits(alone, want), program
            assert same_bits(eval_tree_many(program, columns), want), program
    # The guarded rows differ from 1.0 where the guard passes, so a division
    # that overwrote its in-place dividend would show.
    assert expected[1] == [1.0, 1.0, -0.0, -0.0, 1.0, -10.5]


def test_a_list_evaluation_allocates_only_its_stack_rows():
    depth, rows = 4, 6000
    rng = np.random.default_rng(7)
    X = rng.normal(size=(rows, 5))
    X[::97] = 1e-12  # an entry within DIV_EPS of zero in every column keeps every guard
    columns = Columns(np.asfortranarray(X))
    assert not any(columns.safe)
    programs = list(gen_tree(depth, 5, [(depth, "grow"), (depth, "full")] * 75, rng))
    out = np.empty((len(programs), rows))
    row_bytes = out[0].nbytes
    tracemalloc.start()
    try:
        with np.errstate(all="ignore"):
            eval_tree_many(programs, columns, out)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        np.empty(rows)
        _, one_row = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert one_row >= row_bytes  # tracemalloc sees numpy's buffers
    # Slot 0's row is the program's row of out, so the call needs at most
    # depth - 1 stack rows, plus the guard's |b| row and its bool mask. An
    # evaluator that allocated a row per operator peaked above depth + 1 rows.
    assert peak <= (depth + 1) * row_bytes
    with np.errstate(all="ignore"):
        assert all(same_bits(eval_tree_many(p, columns), r) for p, r in zip(programs, out))


_NEAR_ZERO = st.one_of(
    st.sampled_from(_EDGES + [DIV_EPS / 2, math.nan, math.inf, -math.inf]),
    st.floats(-2.0, 2.0),
)


@st.composite
def tables_and_columns(draw):
    """A `gen_tree` table, and inputs whose entries are often near zero."""
    n_features = draw(st.integers(1, 4))
    X = draw(arrays(float, (draw(st.integers(1, 6)), n_features), elements=_NEAR_ZERO))
    depth = draw(st.integers(0, 6))
    slot = st.tuples(st.integers(0, depth), st.sampled_from(["grow", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gen_tree(depth, n_features, draw(st.lists(slot, min_size=1, max_size=12)), rng), X


@settings(max_examples=100)
@given(tables_and_columns())
def test_list_and_single_evaluation_agree_also_from_two_threads(case):
    table, X = case
    programs = list(table)
    columns = Columns(np.asfortranarray(X))

    def evaluate(repeats):
        with np.errstate(all="ignore"):
            return [eval_tree_many(programs, columns) for _ in range(repeats)]

    (listed,) = evaluate(1)
    with np.errstate(all="ignore"):
        for program, row in zip(programs, listed):
            assert same_bits(eval_tree_many(program, columns), row)
            assert same_bits([eval_tree(program, x) for x in X], row)
    # Switch threads as often as the interpreter allows, so the two callers
    # interleave inside each other's evaluations of the shared Columns.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(evaluate, 20) for _ in range(2)]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(same_bits(got, listed) for results in threaded for got in results)


def test_importing_builds_no_heap_plan():
    code = (
        "import gsgp, gsgp.exprtree as e; assert e._heap_plan.cache_info().currsize == 0; "
        "e.gen_tree(3, 1, [(3, 'grow')], __import__('numpy').random.default_rng(0)); "
        "assert e._heap_plan.cache_info().currsize == 1"
    )
    src = str(Path(exprtree.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_generation_is_deterministic_per_seed():
    slots = [(4, "grow"), (3, "full")] * 10
    t1 = gen_tree(4, 2, slots, np.random.default_rng(99))
    t2 = gen_tree(4, 2, slots, np.random.default_rng(99))
    assert list(t1) == list(t2)
    assert list(gen_tree(4, 2, slots, np.random.default_rng(100))) != list(t1)


def test_tree_json_round_trip(rng):
    for t in gen_tree(4, 3, [(4, "grow")] * 20, rng):
        assert tree_from_json(tree_to_json(t), 3) == t


def reference_gen_tree(max_depth, n_features, slots, rng):
    """`gen_tree` as it was before the heap plan: level-by-level liveness, 2-d cuts.

    It draws the same five arrays in the same order and shapes, so it pins
    both the programs and the stream.
    """
    depths = []
    grow = []
    for depth, method in slots:
        depths.append(depth)
        grow.append(method == "grow")
    n = len(depths)
    internal = (1 << max_depth) - 1
    nodes = 2 * internal + 1
    node_depth = np.repeat(np.arange(max_depth + 1), 1 << np.arange(max_depth + 1))
    is_op = np.zeros((n, nodes), dtype=bool)
    is_op[:, :internal] = node_depth[:internal] < np.array(depths, dtype=int)[:, None]
    stop = rng.random((n, internal)) < P_GROW_TERMINAL
    is_op[:, :internal] &= ~(stop & np.array(grow, dtype=bool)[:, None])
    live = np.zeros((n, nodes), dtype=bool)
    live[:, 0] = True
    for level in range(max_depth):
        first, end = (1 << level) - 1, (2 << level) - 1
        kids = live[:, first:end] & is_op[:, first:end]
        live[:, 2 * first + 1 : 2 * end + 1] = np.repeat(kids, 2, axis=1)
    last = ((np.arange(nodes) + 2) << (max_depth - node_depth)) - 2
    postorder = np.lexsort((-node_depth, last))
    rows, cols = np.nonzero(live[:, postorder])
    cols = postorder[cols]
    branch = is_op[rows, cols]
    ops = rng.integers(len(OP_KINDS), size=(n, internal))[rows[branch], cols[branch]]
    leaf_rows, leaf_cols = rows[~branch], cols[~branch]
    constant = (rng.random((n, nodes)) < P_CONSTANT)[leaf_rows, leaf_cols]
    values = rng.uniform(*CONSTANT_RANGE, size=(n, nodes))[
        leaf_rows[constant], leaf_cols[constant]
    ]
    variables = rng.integers(n_features, size=(n, nodes))[
        leaf_rows[~constant], leaf_cols[~constant]
    ]
    leaves = np.empty(len(leaf_rows), dtype=object)
    leaves[constant] = values
    leaves[~constant] = variables
    code = np.empty(len(rows), dtype=object)
    code[branch] = np.array(OP_KINDS, dtype=object)[ops]
    code[~branch] = leaves
    flat = code.tolist()
    ends = np.cumsum(np.count_nonzero(live, axis=1)).tolist()
    return [tuple(flat[start:end]) for start, end in zip([0] + ends[:-1], ends)]


@st.composite
def generation_requests(draw):
    """A heap depth, a feature count, up to 40 slots within that depth, and a seed."""
    max_depth = draw(st.integers(0, 6))
    n_features = draw(st.integers(1, 6))
    slots = draw(
        st.lists(
            st.tuples(st.integers(0, max_depth), st.sampled_from(["grow", "full"])),
            max_size=40,
        )
    )
    return max_depth, n_features, slots, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150)
@given(generation_requests())
def test_gen_tree_matches_the_reference_in_programs_types_and_stream(request):
    max_depth, n_features, slots, seed = request
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    trees = gen_tree(max_depth, n_features, slots, rng)
    expected = reference_gen_tree(max_depth, n_features, slots, reference_rng)
    assert list(trees) == expected
    assert [[type(node) for node in t] for t in trees] == [
        [type(node) for node in t] for t in expected
    ]
    assert all(type(t) is tuple for t in trees)
    # All five draws consumed the same numbers.
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=60)
@given(generation_requests())
def test_a_tree_table_reads_back_each_program_and_packs_again_to_the_same_arrays(request):
    max_depth, n_features, slots, seed = request
    table = gen_tree(max_depth, n_features, slots, np.random.default_rng(seed))
    programs = list(table)
    assert [table[t] for t in range(len(table))] == programs
    if programs:
        assert table[-1] == programs[-1]
    assert all(type(node) in (str, int, float) for t in programs for node in t)
    again = Trees.pack(programs)
    for name in ("codes", "constants", "ends"):
        assert getattr(again, name).tobytes() == getattr(table, name).tobytes()
    joined = Trees.join([table, again, Trees.pack([])])
    assert list(joined) == programs + programs
    # Nodes are int8 codes while the variables fit; constants are float64.
    assert table.codes.dtype == np.int8 and table.constants.dtype == np.float64
