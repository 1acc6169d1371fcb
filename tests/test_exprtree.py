import numpy as np
import pytest

from gsgp.data import split_70_30, synthetic_dataset
from gsgp.evolve import EvolutionConfig, run_evolution
from gsgp.exprtree import (
    CONSTANT_RANGE,
    MAX_TREE_DEPTH,
    P_CONSTANT,
    P_GROW_TERMINAL,
    BinaryOp,
    Constant,
    TreeGenConfig,
    Variable,
    eval_tree,
    eval_tree_many,
    gen_tree,
    ramp_schedule,
    tree_depth,
    tree_from_json,
    tree_to_json,
)


def generation_zero_trees(population_size, seed, n_features=2):
    """The ramped half-and-half trees run_evolution seeds, in slot order."""
    data = synthetic_dataset("polynomial", 20, n_features, 0.0, seed=1)
    cfg = EvolutionConfig(population_size=population_size, generations=0, seed=seed)
    archive = run_evolution(cfg, split_70_30(data, seed=2), keep_archive=True).archive
    return [ind.payload.tree for ind in archive.generations[0]]


def leaf_depths(tree, depth=0):
    if isinstance(tree, (Constant, Variable)):
        return [depth]
    return leaf_depths(tree.left, depth + 1) + leaf_depths(tree.right, depth + 1)


def node_count(tree):
    if isinstance(tree, (Constant, Variable)):
        return 1
    return 1 + node_count(tree.left) + node_count(tree.right)


def leaves(tree):
    if isinstance(tree, (Constant, Variable)):
        return [tree]
    return leaves(tree.left) + leaves(tree.right)


def test_depth_zero_forces_terminal(rng):
    cfg = TreeGenConfig(max_depth=0, n_features=3)
    trees = gen_tree(cfg, [(0, "grow"), (0, "full")] * 20, rng)
    assert len(trees) == 40
    assert all(isinstance(t, (Constant, Variable)) for t in trees)


def test_full_puts_every_leaf_at_max_depth(rng):
    cfg = TreeGenConfig(max_depth=2, n_features=2)
    for t in gen_tree(cfg, [(2, "full")] * 50, rng):
        assert leaf_depths(t) == [2] * len(leaf_depths(t))


def test_full_never_exceeds_max_depth(rng):
    cfg = TreeGenConfig(max_depth=4, n_features=2)
    assert all(max(leaf_depths(t)) == 4 for t in gen_tree(cfg, [(4, "full")] * 200, rng))


def test_full_leaves_sit_at_their_slot_depth(rng):
    # full and grow slots of every depth share one call on a depth-4 heap
    cfg = TreeGenConfig(max_depth=4, n_features=2)
    slots = [(depth, method) for depth in range(5) for method in ("full", "grow")] * 30
    for (depth, method), tree in zip(slots, gen_tree(cfg, slots, rng)):
        if method == "full":
            assert leaf_depths(tree) == [depth] * 2**depth
        else:
            assert tree_depth(tree) <= depth


def test_grow_depth_distribution_covers_all_depths(rng):
    cfg = TreeGenConfig(max_depth=4, n_features=2)
    depths = [tree_depth(t) for t in gen_tree(cfg, [(4, "grow")] * 10000, rng)]
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
    cfg = TreeGenConfig(max_depth=4, n_features=2)
    trees = gen_tree(cfg, [(4, "grow")] * 20000, np.random.default_rng(2024))
    assert np.mean([node_count(t) for t in trees]) == pytest.approx(expected, rel=0.01)


def test_constant_share_of_terminals(rng):
    cfg = TreeGenConfig(max_depth=4, n_features=3)
    terminals = [leaf for t in gen_tree(cfg, [(4, "full")] * 500, rng) for leaf in leaves(t)]
    constants = [leaf.value for leaf in terminals if isinstance(leaf, Constant)]
    variables = [leaf.index for leaf in terminals if isinstance(leaf, Variable)]
    assert len(constants) / len(terminals) == pytest.approx(P_CONSTANT, abs=0.01)
    assert all(CONSTANT_RANGE[0] <= c < CONSTANT_RANGE[1] for c in constants)
    assert np.mean(constants) == pytest.approx(0.0, abs=0.02)
    assert set(variables) == {0, 1, 2}


def test_grow_respects_max_depth(rng):
    cfg = TreeGenConfig(max_depth=3, n_features=2)
    assert all(tree_depth(t) <= 3 for t in gen_tree(cfg, [(3, "grow")] * 500, rng))


def test_gen_tree_rejects_unknown_method(rng):
    with pytest.raises(ValueError, match="unknown method"):
        gen_tree(TreeGenConfig(), [(4, "half")], rng)
    with pytest.raises(ValueError, match="slot depth 5"):
        gen_tree(TreeGenConfig(max_depth=4), [(5, "grow")], rng)


def test_ramp_schedule_splits_methods_evenly():
    cfg = TreeGenConfig(max_depth=4)
    slots = ramp_schedule(cfg, 100)
    assert len(slots) == 100
    methods = [m for _, m in slots]
    assert methods.count("grow") == 50
    assert methods.count("full") == 50
    assert {d for d, _ in slots} == {2, 3, 4}


def test_ramp_schedule_odd_remainder_goes_to_grow():
    slots = ramp_schedule(TreeGenConfig(max_depth=4), 7)
    assert [m for _, m in slots].count("grow") == 4


def test_ramped_trees_match_their_slots():
    cfg = TreeGenConfig(max_depth=4, n_features=2)
    trees = generation_zero_trees(100, seed=7)
    for (depth, method), tree in zip(ramp_schedule(cfg, 100), trees):
        if method == "full":
            assert leaf_depths(tree) == [depth] * len(leaf_depths(tree))
        else:
            assert tree_depth(tree) <= depth


def test_ramped_single_tree():
    (tree,) = generation_zero_trees(1, seed=0)
    assert tree_depth(tree) <= 2  # slot 0 is grow at the lowest ramp depth


def test_ramped_low_max_depth_falls_back_to_grow():
    slots = ramp_schedule(TreeGenConfig(max_depth=1), 10)
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
    with pytest.raises(ValueError, match="out of range"):
        eval_tree(Variable(2), [1.0, 2.0])
    with pytest.raises(ValueError, match="out of range"):
        eval_tree_many(Variable(2), np.ones((3, 2)))


def test_vectorized_eval_matches_scalar_loop(rng):
    cfg = TreeGenConfig(max_depth=4, n_features=3)
    X = rng.normal(size=(17, 3))
    for t in gen_tree(cfg, [(4, "grow")] * 50, rng):
        vec = eval_tree_many(t, X)
        loop = np.array([eval_tree(t, row) for row in X])
        assert np.array_equal(vec, loop)


def test_generation_is_deterministic_per_seed():
    cfg = TreeGenConfig(max_depth=4, n_features=2)
    slots = [(4, "grow"), (3, "full")] * 10
    t1 = gen_tree(cfg, slots, np.random.default_rng(99))
    t2 = gen_tree(cfg, slots, np.random.default_rng(99))
    assert t1 == t2
    assert gen_tree(cfg, slots, np.random.default_rng(100)) != t1


def test_tree_json_round_trip(rng):
    cfg = TreeGenConfig(max_depth=4, n_features=3)
    for t in gen_tree(cfg, [(4, "grow")] * 20, rng):
        assert tree_from_json(tree_to_json(t), 3) == t


def test_config_validation():
    with pytest.raises(ValueError):
        TreeGenConfig(max_depth=-1)
    with pytest.raises(ValueError):
        TreeGenConfig(n_features=0)
    TreeGenConfig(max_depth=MAX_TREE_DEPTH)
    with pytest.raises(ValueError):
        TreeGenConfig(max_depth=MAX_TREE_DEPTH + 1)
