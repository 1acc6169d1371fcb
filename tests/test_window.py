"""Whole-run checks of the evaluator that writes each generation into the archive's window.

GSGP's geometry holds for every child a run makes: a crossover child lies
entry by entry between its parents, and a bounded mutation moves each entry
of its base by at most its step. Beyond the geometry, each child is the row
its own payload defines, recomputed from its packed slot alone (see
`records.defined_row`), so a child mixed with the wrong weight, parent
order or step fails though it keeps to the box. The runs are 100 x 100 on
200 rows, so each selection strategy reuses its window slots many times
over, and each generation is checked in its slot before the next one can
reuse a slot. The replay path keeps the same geometry: after a run, each
released generation is read back oldest first and checked the same way.
"""

import numpy as np
import pytest

from records import check_children, holds_slots

import gsgp.archive as archive_module
from gsgp.archive import Archive, IndividualRef
from gsgp.data import synthetic_dataset, split_70_30
from gsgp.evolve import EvolutionConfig, next_generation, run_evolution
from gsgp.selection import parse_distribution


def friedman_split(rows=200):
    return split_70_30(synthetic_dataset("friedman-like", rows, 5, 0.0, seed=1), seed=2)


@pytest.mark.parametrize("spec", ["u:1", "u:5", "g:0.25"])
def test_every_child_of_a_run_keeps_to_its_parents_box_and_its_step(monkeypatch, spec):
    checked = {"crossovers": 0, "mutations": 0, "weighed": 0}
    append = Archive.append_evaluated

    def checked_append(self, payloads):
        # Each generation is checked before it completes: its rows are in
        # its window slot, and each parent is read again through `row`.
        g = len(self.generations)
        rows, fitness = self._window[g % len(self._window)], self._train_fitness[g]
        check_children(self, payloads, rows, fitness, checked)
        append(self, payloads)

    monkeypatch.setattr(Archive, "append_evaluated", checked_append)
    cfg = EvolutionConfig(distribution=parse_distribution(spec), seed=3)
    archive = run_evolution(cfg, friedman_split(), keep_archive=True).archive
    assert len(archive._window) == min(cfg.distribution.horizon, cfg.generations + 1) + 1
    assert checked["crossovers"] > 5000 and checked["mutations"] > 200
    assert checked["weighed"] == (cfg.generations + 1) * cfg.population_size  # leaves too


def test_every_replayed_child_keeps_to_its_parents_box_and_its_step(monkeypatch):
    split = friedman_split(rows=60)
    cfg = EvolutionConfig(
        distribution=parse_distribution("g:0.75"), population_size=30, generations=30, seed=3
    )
    archive = run_evolution(cfg, split, keep_archive=True).archive
    clone = Archive.from_json(archive.to_json(), split)
    released = len(archive.generations) - min(cfg.distribution.horizon, cfg.generations + 1)
    assert released == 26
    blocks = []
    evaluate = archive_module.evaluate_block

    def counting_evaluate(*args, **kwargs):
        blocks.append(args[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(archive_module, "evaluate_block", counting_evaluate)
    checked, replays = {"crossovers": 0, "mutations": 0, "weighed": 0}, archive.replays
    for g in range(released):  # oldest first
        children = []
        payloads, fitness = archive.generations[g].packed, archive.train_fitness[g]
        for i in range(len(payloads)):
            ref = IndividualRef(g, i)
            del blocks[:]
            children.append(archive.row(ref))
            # Every parent was replayed before, or is held, so the replay
            # evaluates this one payload alone.
            assert len(blocks) == 1 and holds_slots(blocks[0], payloads, [i])
            assert children[-1].tobytes() == clone.row(ref).tobytes()
        check_children(archive, payloads, np.array(children), fitness, checked)
    # 780 rows replayed; 476 plain crossovers and 23 mutations of a ref checked.
    assert archive.replays - replays == released * cfg.population_size == 780
    assert checked["crossovers"] > 400 and checked["mutations"] > 15, checked
    assert checked["weighed"] == 780


def test_a_view_keeps_its_bits_after_its_generations_slot_is_reused():
    split = friedman_split(rows=60)
    cfg = EvolutionConfig(population_size=10, generations=3, seed=4)  # u:1: a window of 2 slots
    archive = run_evolution(cfg, split, keep_archive=True).archive
    window = archive._window
    read, unread = archive.generations[3][0], archive.generations[3][1]
    bits = read.semantics.tobytes()
    train = read.train_semantics
    slot = window[3 % len(window)]
    rng = np.random.default_rng(5)
    for _ in range(2):  # generation 5 is written into generation 3's slot
        next_generation(archive, cfg, rng)
    assert archive._window is window and np.shares_memory(archive.row(IndividualRef(5, 0)), slot)
    assert slot.tobytes() != bits  # the slot now holds generation 5's rows
    clone = Archive.from_json(archive.to_json(), split)
    assert read.semantics.tobytes() == bits == clone.row(IndividualRef(3, 0)).tobytes()
    assert read.train_semantics is train
    # A view made while its generation was held, first read after the slot's
    # reuse, replays its row instead of reading generation 5's.
    replays = archive.replays
    assert unread.semantics.tobytes() == clone.row(IndividualRef(3, 1)).tobytes()
    assert archive.replays == replays + 1
    # A new view of the released generation replays as well, with the same bits.
    assert archive.generations[3][0] is not read
    assert archive.generations[3][0].semantics.tobytes() == bits
