"""Generation-offset distributions and the multi-generational tournament.

A tournament entrant is drawn in two stages: first a source generation
from the configured offset distribution, then a uniform index inside that
generation. With UniformLastK(1) both stages collapse to standard
previous-generation tournament selection.

Offsets are counted from the latest completed generation: offset 0 means
"the generation just before the one being built". A distribution is any
object with two methods and one attribute: sample_many(current, n, rng),
which returns an integer array of n generation indices in [0, current-1]
for current >= 1; label(), which returns the spec that parse_distribution
reads back (campaigns name and seed their strategies by it); and horizon,
the number of latest generations whose semantics a run holds, an int >= 1.
A run releases the semantics of every older generation (see
`run_evolution`), and a winner drawn from one is read by exact replay, so
the horizon changes only time and memory, never a result. UniformLastK(k)
draws only from its horizon of k; Geometric draws beyond its horizon so
rarely that a run seldom replays.

Tournaments are drawn in bulk (RNG stream 2): `tournament_select` runs n
tournaments of size t with two draws, every entrant's source generation
(one `sample_many` call, which UniformLastK(1) answers without a draw) and
then every entrant's index (one `rng.integers` call). Entrant j of
tournament i is draw i*t + j of each. Every entrant's training error is
read from the archive's fitness table with one index, and each
tournament's winner is the argmin of its row of t errors. Every entrant is
tallied into offset_counts when it is drawn, so the entrants of a draw
that is later rejected for non-finite semantics stay tallied.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .archive import Archive


@dataclass(frozen=True)
class UniformLastK:
    """Uniform over the last k completed generations (all of them if fewer)."""

    k: int

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"k must be an integer, not {self.k!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "k", int(self.k))

    def sample_many(self, current: int, n: int, rng: np.random.Generator) -> np.ndarray:
        lo = max(0, current - self.k)
        if lo == current - 1:
            # single-generation window: no draw consumed, so U-1 runs the
            # exact RNG stream of a previous-generation-only implementation
            return np.full(n, current - 1)
        return rng.integers(lo, current, size=n)

    def label(self) -> str:
        return f"u:{self.k}"

    @property
    def horizon(self) -> int:
        return self.k


# A Geometric law holds the generations an entrant lands in with probability
# at least 1 - _HORIZON_TAIL (see Geometric).
_HORIZON_TAIL = 1e-4


@dataclass(frozen=True)
class Geometric:
    """Offset o >= 0 with probability p*(1-p)^o; overflow lands on generation 0.

    An entrant lands at offset h or beyond with probability (1-p)^h, so the
    horizon H(p) is the smallest h >= 1 with (1-p)^h <= 1e-4, evaluated as
    exp(h*log1p(-p)): 88, 33, 14 and 7 for p = 0.1, 0.25, 0.5 and 0.75, and
    1 for p near 1. An entrant beyond it, generation 0 overflow included,
    has probability below 1e-4, and only a tournament winner beyond it
    costs a replay. Winners are younger still: over 30 seeds of 100 x 100
    runs on 200 rows, the oldest parent of any run was at offset 48 for
    g:0.1, 17 for g:0.25, 8 for g:0.5 and 5 for g:0.75 (20 and 5 for g:0.25
    and g:0.75 over 10 seeds on 6000 rows), and no run replayed.
    """

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")

    @property
    def horizon(self) -> int:
        log_q = math.log1p(-self.p)
        h = max(1, math.ceil(math.log(_HORIZON_TAIL) / log_q))
        # The quotient is off by at most one step after rounding.
        if math.exp(h * log_q) > _HORIZON_TAIL:
            h += 1
        elif h > 1 and math.exp((h - 1) * log_q) <= _HORIZON_TAIL:
            h -= 1
        return h

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
    winners' refs, in tournament order; each is the archive's own ref object
    for its slot (see `Archive.append_generation`), not a new one. When
    offset_counts (an integer array indexed by offset) is given, each
    entrant's generation offset is tallied into it.
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
        offset_counts += np.bincount(current - 1 - gens, minlength=len(offset_counts))
    fitness = archive.train_fitness[gens, idx]
    winners = np.argmin(fitness.reshape(n, t), axis=1) + np.arange(0, n * t, t)
    refs = archive._slot_refs
    return tuple(refs[g][i] for g, i in zip(gens[winners].tolist(), idx[winners].tolist()))
