"""Generation-offset distributions and the multi-generational tournament.

A tournament entrant is drawn in two stages: first a source generation
from the configured offset distribution, then a uniform index inside that
generation. With UniformLastK(1) both stages collapse to standard
previous-generation tournament selection.

Offsets are counted from the latest completed generation: offset 0 means
"the generation just before the one being built". A distribution is any
object with two methods: sample(current, rng), which returns a generation
index in [0, current-1] for current >= 1, and label(), which returns the
spec that parse_distribution reads back (campaigns name and seed their
strategies by it).
"""

from dataclasses import dataclass

import numpy as np

from .archive import Archive, IndividualRef


@dataclass(frozen=True)
class UniformLastK:
    """Uniform over the last k completed generations (all of them if fewer)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def sample(self, current: int, rng: np.random.Generator) -> int:
        lo = max(0, current - self.k)
        if lo == current - 1:
            # single-generation window: no draw consumed, so U-1 runs the
            # exact RNG stream of a previous-generation-only implementation
            return current - 1
        return int(rng.integers(lo, current))

    def label(self) -> str:
        return f"u:{self.k}"


@dataclass(frozen=True)
class Geometric:
    """Offset o >= 0 with probability p*(1-p)^o; overflow lands on generation 0."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")

    def sample(self, current: int, rng: np.random.Generator) -> int:
        offset = int(rng.geometric(self.p)) - 1
        return max(0, current - 1 - offset)

    def label(self) -> str:
        return f"g:{float(self.p)!r}"


def parse_distribution(spec: str):
    """Parse the CLI spelling: u:<k> or g:<p> (e.g. u:5, g:0.25)."""
    try:
        head, _, arg = spec.partition(":")
        if head == "u":
            return UniformLastK(int(arg))
        if head == "g":
            return Geometric(float(arg))
    except ValueError as exc:
        raise ValueError(f"bad distribution spec {spec!r}: {exc}") from None
    raise ValueError(f"bad distribution spec {spec!r}: expected u:<k> or g:<p>")


def tournament_select(
    archive: Archive,
    d,
    t: int,
    rng: np.random.Generator,
    offset_counts=None,
) -> IndividualRef:
    """Run one size-t tournament over the archive under distribution d.

    Entrants are drawn independently with replacement, each as a source
    generation from d and then a uniform index inside it. The winner is the
    entrant with the lowest training error, the first drawn on ties. When
    offset_counts (an integer array indexed by offset) is given, each
    entrant's generation offset is tallied into it.
    """
    if t < 1:
        raise ValueError("tournament size must be >= 1")
    generations = archive.generations
    current = len(generations)
    if current == 0:
        raise ValueError("archive has no completed generation")
    best = None
    for _ in range(t):
        gen = d.sample(current, rng)
        idx = int(rng.integers(len(generations[gen])))
        if offset_counts is not None:
            offset_counts[current - 1 - gen] += 1
        fit = generations[gen][idx].train_fitness
        if best is None or fit < best_fit:
            best, best_fit = (gen, idx), fit
    return IndividualRef(*best)
