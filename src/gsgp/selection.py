"""Generation-offset distributions and the multi-generational tournament.

A tournament entrant is drawn in two stages: first a source generation
from the configured offset distribution, then a uniform index inside that
generation. With UniformLastK(1) both stages collapse to standard
previous-generation tournament selection.

Offsets are counted from the latest completed generation: offset 0 means
"the generation just before the one being built". A distribution is any
object with two methods: sample_many(current, n, rng), which returns an
integer array of n generation indices in [0, current-1] for current >= 1,
and label(), which returns the spec that parse_distribution reads back
(campaigns name and seed their strategies by it).

Tournaments are drawn in bulk (RNG stream 2): `tournament_select` runs n
tournaments of size t with two draws, every entrant's source generation
(one `sample_many` call, which UniformLastK(1) answers without a draw) and
then every entrant's index (one `rng.integers` call). Entrant j of
tournament i is draw i*t + j of each. Every entrant is tallied into
offset_counts when it is drawn, so the entrants of a draw that is later
rejected for non-finite semantics stay tallied, and their winners stay in
the caller's selection trace.
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

    def sample_many(self, current: int, n: int, rng: np.random.Generator) -> np.ndarray:
        lo = max(0, current - self.k)
        if lo == current - 1:
            # single-generation window: no draw consumed, so U-1 runs the
            # exact RNG stream of a previous-generation-only implementation
            return np.full(n, current - 1)
        return rng.integers(lo, current, size=n)

    def label(self) -> str:
        return f"u:{self.k}"


@dataclass(frozen=True)
class Geometric:
    """Offset o >= 0 with probability p*(1-p)^o; overflow lands on generation 0."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")

    def sample_many(self, current: int, n: int, rng: np.random.Generator) -> np.ndarray:
        offsets = rng.geometric(self.p, size=n) - 1
        return np.maximum(0, current - 1 - offsets)

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
    n: int,
    rng: np.random.Generator,
    offset_counts=None,
) -> tuple:
    """Run n size-t tournaments over the archive under distribution d.

    Entrants are drawn independently with replacement, each as a source
    generation from d and then a uniform index inside it (see the module
    docstring for the draw order). Each tournament's winner is the entrant
    with the lowest training error, the first drawn on ties. Returns the n
    winners' refs, in tournament order. When offset_counts (an integer
    array indexed by offset) is given, each entrant's generation offset is
    tallied into it.
    """
    if t < 1:
        raise ValueError("tournament size must be >= 1")
    generations = archive.generations
    current = len(generations)
    if current == 0:
        raise ValueError("archive has no completed generation")
    gens = d.sample_many(current, n * t, rng)
    idx = rng.integers(len(generations[0]), size=n * t)
    if offset_counts is not None:
        np.add.at(offset_counts, current - 1 - gens, 1)
    gens, idx = gens.tolist(), idx.tolist()
    fitness = np.array([generations[g][i].train_fitness for g, i in zip(gens, idx)])
    winners = np.argmin(fitness.reshape(n, t), axis=1) + np.arange(0, n * t, t)
    return tuple(IndividualRef(gens[j], idx[j]) for j in winners.tolist())
