import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_split, seeded_archive
from test_golden import datasets, golden_config

from gsgp.archive import Archive, IndividualRef, Leaf
from gsgp.data import split_70_30
from gsgp.evolve import run_evolution
from gsgp.exprtree import Constant
from gsgp.selection import (
    _HORIZON_TAIL,
    _MAX_HORIZON,
    Geometric,
    UniformLastK,
    parse_distribution,
    tournament_select,
)


def constant_archive(fitnesses, generations=1):
    """Archive whose generation-0 leaves have the given training errors.

    A leaf Constant(c) against zero targets has RMSE |c|.
    """
    split = make_split([[0.0], [0.0]], [0.0, 0.0])
    archive = seeded_archive([Constant(float(f)) for f in fitnesses], split)
    for _ in range(generations - 1):
        archive.append_generation(list(archive.generations[0]))
    return archive


def test_uniform_k1_is_degenerate(rng):
    draws = UniformLastK(1).sample_many(7, 100, rng)
    assert draws.shape == (100,)
    assert (draws == 6).all()


def test_uniform_k1_consumes_no_randomness():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    UniformLastK(1).sample_many(9, 50, rng)
    UniformLastK(5).sample_many(1, 50, rng)  # a one-generation history as well
    assert rng.bit_generator.state == before


def test_uniform_window(rng):
    draws = UniformLastK(3).sample_many(10, 30000, rng)
    assert set(draws.tolist()) == {7, 8, 9}
    for g in (7, 8, 9):
        assert np.mean(draws == g) == pytest.approx(1 / 3, abs=0.01)


def test_horizon_is_the_shortest_hold_with_a_tail_of_at_most_the_constant(rng):
    assert UniformLastK(3).horizon == 3
    assert set(UniformLastK(3).sample_many(10, 2000, rng).tolist()) == set(range(10 - 3, 10))
    # The horizons that the Geometric docstring cites.
    for p, expected in ((0.1, 56), (0.25, 21), (0.5, 9), (0.75, 5), (0.99999, 1)):
        assert Geometric(p).horizon == expected
    tail = Fraction(_HORIZON_TAIL)
    # The last two sit at the boundary, where the rounded quotient is one too long.
    for p in (0.01, 0.05, 0.1, 0.25, 0.3, 0.5, 0.75, 0.95, 0.99999, 0.18152733200644847,
              0.0953052072695723):
        h = Geometric(p).horizon
        q = 1 - Fraction(p)  # exact, so the check does not share the code's rounding
        assert h >= 1 and q**h <= tail < q ** (h - 1)
    # A geometric draw can still land beyond the horizon; the run replays it.
    assert Geometric(0.9).sample_many(50, 10**6, rng).min() < 50 - Geometric(0.9).horizon


@settings(max_examples=300)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_every_p_gets_the_shortest_hold_within_the_tail(p):
    h = Geometric(p).horizon
    assert type(h) is int and 1 <= h <= _MAX_HORIZON
    log_q = math.log1p(-p)
    if h == _MAX_HORIZON:  # a hold beyond any run, for a p below about 5e-15
        assert math.log(_HORIZON_TAIL) / log_q >= _MAX_HORIZON - 1
        return
    # The evaluation that the Geometric docstring states.
    assert math.exp(h * log_q) <= _HORIZON_TAIL
    assert h == 1 or math.exp((h - 1) * log_q) > _HORIZON_TAIL
    # Exactly, where the powers are cheap and float rounding cannot flip a comparison.
    near = [abs(math.exp(k * log_q) / _HORIZON_TAIL - 1) < 1e-9 for k in (h, h - 1)]
    if h <= 10_000 and not any(near):
        q = 1 - Fraction(p)
        assert q**h <= Fraction(_HORIZON_TAIL) < q ** (h - 1)


def test_a_tiny_p_gets_its_horizon_without_a_loop():
    p = 1e-9
    start = time.perf_counter()
    h = Geometric(p).horizon
    assert time.perf_counter() - start < 1.0  # counting up to h would take minutes
    log_q = math.log1p(-p)
    assert math.exp(h * log_q) <= _HORIZON_TAIL < math.exp((h - 1) * log_q)
    assert h == pytest.approx(math.log(_HORIZON_TAIL) / log_q, abs=1)
    # A p near the smallest float once overflowed the quotient to inf.
    for p in (2.0**-52, 1e-300, 5e-324):
        assert Geometric(p).horizon == _MAX_HORIZON


@pytest.mark.parametrize("p", ["0.5", None, True, False, [0.5], 1 + 0j])
def test_geometric_refuses_a_p_that_is_not_a_number(p):
    with pytest.raises(ValueError, match=re.escape(f"p must be a number, not {p!r}")):
        Geometric(p)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, 0, 1, math.nan, math.inf, -math.inf])
def test_geometric_refuses_a_p_outside_0_1(p):
    with pytest.raises(ValueError, match=re.escape("p must be in (0, 1)")):
        Geometric(p)


def test_uniform_k_must_be_an_integer():
    for bad in (2.5, True, 3.0, "3"):
        with pytest.raises(ValueError, match=re.escape(f"not {bad!r}")):
            UniformLastK(bad)
    d = UniformLastK(np.int64(3))
    assert type(d.k) is int and d == UniformLastK(3)
    assert d.label() == "u:3"


def test_uniform_short_history_uses_all_generations(rng):
    draws = UniformLastK(10).sample_many(3, 2000, rng)
    assert set(draws.tolist()) == {0, 1, 2}


def test_geometric_frequencies(rng):
    n = 10**5
    draws = Geometric(0.5).sample_many(10, n, rng)
    assert np.mean(draws == 9) == pytest.approx(0.5, abs=0.01)
    assert np.mean(draws == 8) == pytest.approx(0.25, abs=0.01)


def test_geometric_clamp_to_initial_population(rng):
    n = 10**5
    draws = Geometric(0.25).sample_many(2, n, rng)
    assert set(np.unique(draws)) == {0, 1}
    assert np.mean(draws == 1) == pytest.approx(0.25, abs=0.01)
    # every overflow draw lands on generation 0
    assert np.mean(draws == 0) == pytest.approx(0.75, abs=0.01)


def test_sample_range_invariant(rng):
    for d in (UniformLastK(1), UniformLastK(5), Geometric(0.25), Geometric(0.75)):
        for current in (1, 2, 3, 17):
            draws = d.sample_many(current, 500, rng)
            assert draws.shape == (500,)
            assert ((0 <= draws) & (draws <= current - 1)).all()


def test_sample_requires_history(rng):
    # tournament_select checks for a completed generation before any draw
    empty = Archive(make_split([[0.0], [0.0]], [0.0, 0.0]))
    before = rng.bit_generator.state
    for d in (UniformLastK(1), UniformLastK(3), Geometric(0.5)):
        with pytest.raises(ValueError, match="no completed generation"):
            tournament_select(empty, d, 2, 3, rng)
    assert rng.bit_generator.state == before


def test_geometric_offsets_law(rng):
    # a history far longer than any drawn offset, so no draw is clamped
    current = 10**4
    offsets = current - 1 - Geometric(0.25).sample_many(current, 10**5, rng)
    assert np.mean(offsets) == pytest.approx(3.0, rel=0.03)
    for o in range(4):
        assert np.mean(offsets == o) == pytest.approx(0.25 * 0.75**o, abs=0.01)


def test_parse_distribution():
    assert parse_distribution("u:5") == UniformLastK(5)
    assert parse_distribution("g:0.25") == Geometric(0.25)
    for bad in ("u:0", "g:1.5", "z:3", "u:x", "5", "g:"):
        with pytest.raises(ValueError):
            parse_distribution(bad)


def test_labels_round_trip():
    assert UniformLastK(5).label() == "u:5"
    assert Geometric(0.25).label() == "g:0.25"
    assert Geometric(0.5).label() == "g:0.5"
    for d in (UniformLastK(1), UniformLastK(37)):
        assert parse_distribution(d.label()) == d
    # more than six significant digits, where "%g" would merge neighbours
    for p in (0.25, 0.1234567, 0.1234568, 1e-7, 1 / 3, 0.9999999999):
        assert parse_distribution(Geometric(p).label()) == Geometric(p)


# Train RMSEs of Constant(c) leaves against zero targets: |c|. Three
# values, so ties cross generations; 1e200 is finite only because rmse
# rescales an error whose square overflows.
_FITNESS_CONSTANTS = (1.0, 2.0, 1e200)


@st.composite
def _tied_archives(draw):
    """Archives of 1-4 generations of 1-5 leaves with at most 3 distinct fitnesses."""
    pop = draw(st.integers(1, 5))
    generations = draw(st.integers(1, 4))
    values = st.lists(st.sampled_from(_FITNESS_CONSTANTS), min_size=pop, max_size=pop)
    archive = Archive(make_split([[0.0], [0.0]], [0.0, 0.0]))
    for _ in range(generations):
        leaves = [Leaf(Constant(c)) for c in draw(values)]
        archive.append_generation(archive.evaluate(leaves, range(pop))[0])
    return archive


@settings(max_examples=200)
@given(
    _tied_archives(),
    st.integers(1, 8),
    st.integers(0, 5),
    st.sampled_from(["u:1", "u:3", "g:0.5"]),
    st.integers(0, 2**32 - 1),
)
def test_tournament_winner_is_first_minimal_entrant(archive, t, n, spec, seed):
    d = parse_distribution(spec)
    current = len(archive.generations)
    counts = np.arange(4, dtype=np.int64)  # earlier tallies are kept
    expected = counts.copy()
    rng = np.random.default_rng(seed)
    winners = tournament_select(archive, d, t, n, rng, offset_counts=counts)

    # entrant j of tournament i is draw i*t + j of each of the two draws
    twin = np.random.default_rng(seed)
    gens = d.sample_many(current, n * t, twin).tolist()
    idx = twin.integers(len(archive.generations[0]), size=n * t).tolist()
    entrants = [IndividualRef(g, i) for g, i in zip(gens, idx)]
    for g in gens:
        expected[current - 1 - g] += 1
    assert isinstance(winners, tuple) and len(winners) == n
    for i, winner in enumerate(winners):
        drawn = entrants[i * t : (i + 1) * t]
        fitnesses = [archive.individual(ref).train_fitness for ref in drawn]
        assert winner == drawn[fitnesses.index(min(fitnesses))]
    assert np.array_equal(counts, expected)
    assert counts.sum() == np.arange(4).sum() + n * t
    assert rng.bit_generator.state == twin.bit_generator.state


def test_tournament_size_one_returns_single_entrant(rng):
    archive = constant_archive([5.0, 1.0, 3.0])
    winners = tournament_select(archive, UniformLastK(1), 1, 200, rng)
    assert {w.index for w in winners} == {0, 1, 2}  # fitness is irrelevant at t=1


def test_tournament_winner_is_generation_minimum_for_big_t(rng):
    fitnesses = list(rng.uniform(1.0, 9.0, size=10))
    archive = constant_archive(fitnesses)
    (winner,) = tournament_select(archive, UniformLastK(1), 64 * 10, 1, rng)
    assert archive.individual(winner).train_fitness == min(
        archive.individual(IndividualRef(0, i)).train_fitness for i in range(10)
    )


def test_tournament_winner_not_worse_than_any_possible_entrant(rng):
    archive = constant_archive(list(rng.uniform(1.0, 9.0, size=8)), generations=4)
    worst = max(ind.train_fitness for gen in archive.generations for ind in gen)
    for winner in tournament_select(archive, Geometric(0.5), 4, 100, rng):
        assert archive.individual(winner).train_fitness <= worst


def test_tournament_offset_tally(rng):
    archive = constant_archive([1.0, 2.0], generations=5)
    counts = np.zeros(10, dtype=np.int64)
    tournament_select(archive, UniformLastK(3), 4, 3, rng, offset_counts=counts)
    assert counts.sum() == 12
    assert counts[3:].sum() == 0  # u:3 never reaches past offset 2


def test_tournament_requires_archive_and_positive_t(rng):
    archive = constant_archive([1.0])
    with pytest.raises(ValueError):
        tournament_select(archive, UniformLastK(1), 0, 1, rng)
    from gsgp.archive import Archive

    empty = Archive(make_split([[0.0], [0.0]], [0.0, 0.0]))
    with pytest.raises(ValueError):
        tournament_select(empty, UniformLastK(1), 2, 1, rng)


@pytest.mark.parametrize(
    "data_name, cfg_name",
    [("friedman-like", "g:0.25"), ("friedman-like-1e150", "raw-mutation")],
)
def test_loaded_archive_selects_like_the_original(data_name, cfg_name):
    # the scaled raw-mutation run redraws non-finite offspring slots
    split = split_70_30(datasets()[data_name], seed=1)
    result = run_evolution(golden_config(cfg_name), split, keep_archive=True)
    assert (result.nonfinite_retries > 0) == (data_name == "friedman-like-1e150")
    original = result.archive
    loaded = Archive.from_json(original.to_json(), split)
    for archive in (original, loaded):
        table = [[ind.train_fitness for ind in gen] for gen in archive.generations]
        assert archive.train_fitness.tobytes() == np.array(table).tobytes()
    assert loaded.train_fitness.tobytes() == original.train_fitness.tobytes()
    for g in range(len(original.generations)):
        assert loaded.best_of_generation(g) == original.best_of_generation(g)
    for spec in ("u:1", "u:5", "g:0.25"):
        d = parse_distribution(spec)
        counts = [np.zeros(len(original.generations), dtype=np.int64) for _ in range(2)]
        winners = [
            tournament_select(archive, d, 4, 200, np.random.default_rng(7), tally)
            for archive, tally in zip((original, loaded), counts)
        ]
        assert winners[0] == winners[1]
        assert np.array_equal(counts[0], counts[1])
        assert counts[0].sum() == 4 * 200
