"""Generation-offset distributions and the multi-generational tournament.

A tournament entrant is drawn in two stages: first a source generation
from the configured offset distribution, then a uniform index inside that
generation. With UniformLastK(1) both stages collapse to standard
previous-generation tournament selection.

Offsets are counted from the latest completed generation: offset 0 means
"the generation just before the one being built". Any object with
sample(current, rng) -> generation index works as a distribution.
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
        return f"g:{self.p:g}"


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


def sample_source_generation(d, current: int, rng: np.random.Generator) -> int:
    """Pick the generation an entrant comes from, in [0, current-1]."""
    if current < 1:
        raise ValueError("no completed generation to select from")
    return d.sample(current, rng)


def geometric_offsets(p: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Bulk unclamped offsets with law p*(1-p)^o, for law checks and tooling."""
    return rng.geometric(p, size=size) - 1


def best_of(archive: Archive, refs: list) -> IndividualRef:
    """Entrant with minimum training error; ties go to the earliest drawn."""
    if not refs:
        raise ValueError("empty tournament")
    best = refs[0]
    best_fit = archive.individual(best).train_fitness
    for ref in refs[1:]:
        fit = archive.individual(ref).train_fitness
        if fit < best_fit:
            best, best_fit = ref, fit
    return best


def tournament_select(
    archive: Archive,
    d,
    t: int,
    rng: np.random.Generator,
    offset_counts=None,
) -> IndividualRef:
    """Run one size-t tournament over the archive under distribution d.

    Entrants are drawn independently with replacement. When offset_counts
    (an integer array indexed by offset) is given, each entrant's
    generation offset is tallied into it.
    """
    if t < 1:
        raise ValueError("tournament size must be >= 1")
    current = len(archive.generations)
    if current == 0:
        raise ValueError("archive has no completed generation")
    entrants = []
    for _ in range(t):
        gen = sample_source_generation(d, current, rng)
        idx = int(rng.integers(len(archive.generations[gen])))
        if offset_counts is not None:
            offset_counts[current - 1 - gen] += 1
        entrants.append(IndividualRef(gen, idx))
    return best_of(archive, entrants)
