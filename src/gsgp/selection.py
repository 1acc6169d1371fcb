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
A run releases each older generation as the next one is appended (see
`run_evolution`), and a winner drawn from a released one is read by exact
replay, so the horizon changes only time and memory, never a result.
UniformLastK(k) draws only from its horizon of k; Geometric's horizon
holds the offsets an entrant reaches with probability at least
1 - _HORIZON_TAIL, a tail chosen from a measured curve of replay time
against held memory.

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

from .archive import Archive, Refs
from .errors import checked_int, finite_number


@dataclass(frozen=True)
class UniformLastK:
    """Uniform over the last k completed generations (all of them if fewer)."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", checked_int("k", self.k, 1))

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
# at least 1 - _HORIZON_TAIL (see Geometric). tools/horizon_curve.py measures
# the grid this value was chosen from.
_HORIZON_TAIL = 3e-3
# No run has this many generations, and above it the float quotient of
# Geometric.horizon can be off by more than one step, so it caps the horizon.
_MAX_HORIZON = 1 << 50


@dataclass(frozen=True)
class Geometric:
    """Offset o >= 0 with probability p*(1-p)^o; overflow lands on generation 0.

    An entrant lands at offset h or beyond with probability (1-p)^h, so the
    horizon H(p) is the smallest h >= 1 with (1-p)^h <= _HORIZON_TAIL
    (3e-3), evaluated as exp(h*log1p(-p)): 56, 21, 9 and 5 for p = 0.1,
    0.25, 0.5 and 0.75, 1 for p near 1, and _MAX_HORIZON for a p below
    about 5e-15. An entrant beyond it, generation 0 overflow included, has
    probability at most 3e-3, and only a tournament winner beyond it costs
    a replay, which reads the same bits. Winners are younger still: over 30
    seeds of 100 x 100 runs on 200 rows and 10 on 6000 rows, no run
    replayed for p <= 0.5, and for g:0.75 2 of 30 and 1 of 10 runs did,
    their replays adding at most 12% and 17% to the run. The tail is the
    largest of 1e-4, 1e-3, 3e-3 and 1e-2 whose replays added at most 2% to
    the median run and 20% to the worst for every p
    (tools/horizon_curve.py); 1e-2 added 3.4% to the median g:0.75 run on
    6000 rows.
    """

    p: float

    def __post_init__(self):
        # A bool, a string or None is refused by name; a non-finite float
        # fails the range check, whose message parse_distribution passes on.
        if not (finite_number(self.p) or isinstance(self.p, float)):
            raise ValueError(f"p must be a number, not {self.p!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")

    @property
    def horizon(self) -> int:
        log_q = math.log1p(-self.p)
        # The quotient is inf for a p near the smallest float.
        h = max(1, math.ceil(min(math.log(_HORIZON_TAIL) / log_q, _MAX_HORIZON)))
        # Below _MAX_HORIZON the quotient is off by at most one step after rounding.
        if math.exp(h * log_q) > _HORIZON_TAIL:
            h += 1
        elif h > 1 and math.exp((h - 1) * log_q) <= _HORIZON_TAIL:
            h -= 1
        return min(h, _MAX_HORIZON)

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


def checked_distribution(name: str, value):
    """value as a distribution, or ValueError naming name.

    A str goes through `parse_distribution`; any other value must have
    `sample_many`, `label` and `horizon`, as UniformLastK and Geometric do,
    and a horizon that is an int >= 1 (None and a bool are not), which the
    message names with the distribution's label.
    """
    if isinstance(value, str):
        return parse_distribution(value)
    if not all(hasattr(value, attr) for attr in ("sample_many", "label", "horizon")):
        raise ValueError(f"{name} must be a u:<k> or g:<p> spec or a distribution, not {value!r}")
    horizon = value.horizon
    if isinstance(horizon, bool) or not isinstance(horizon, numbers.Integral) or horizon < 1:
        raise ValueError(f"{name} {value.label()} has horizon {horizon!r}; expected an int >= 1")
    return value


def tournament_select(
    archive: Archive,
    d,
    t: int,
    n: int,
    rng: np.random.Generator,
    offset_counts=None,
) -> Refs:
    """Run n size-t tournaments over the archive under distribution d.

    Entrants are drawn independently with replacement, each as a source
    generation from d and then a uniform index inside it (see the module
    docstring for the draw order). Each tournament's winner is the entrant
    with the lowest training error, the first drawn on ties. Returns the n
    winners, in tournament order, as two index arrays (`Refs`): their
    generations and their indices, so no object is made per winner. When
    offset_counts (an integer array indexed by offset) is given, each
    entrant's generation offset is tallied into it. The caller guarantees
    t >= 1 (`EvolutionConfig.tournament_size`) and a seeded archive.
    """
    generations = archive.generations
    current = len(generations)
    gens = d.sample_many(current, n * t, rng)
    idx = rng.integers(len(generations[0]), size=n * t)
    if offset_counts is not None:
        offset_counts += np.bincount(current - 1 - gens, minlength=len(offset_counts))
    fitness = archive.train_fitness[gens, idx]
    winners = np.argmin(fitness.reshape(n, t), axis=1) + np.arange(0, n * t, t)
    return Refs(gens[winners], idx[winners])
