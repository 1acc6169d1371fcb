"""Calibrated time: wall time scaled by the speed the machine had at the time.

On a shared machine a core's speed changes by up to 1.7x for seconds at a
time, as neighbours load its hyperthread sibling. A fixed kernel, timed next
to each measured interval, gives the speed at that moment. An interval of t
seconds next to kernels that took c seconds on average is reported as
t * REFERENCE_S / c: its time at the speed where the kernel takes
REFERENCE_S, about an idle 2-vCPU x86 sandbox under Python 3.11 and numpy 2.4.
The kernel mixes what gsgp does: recursive Python over small expression
trees with numpy arithmetic on rows.
"""

import random
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

REFERENCE_S = 0.175e-3


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return rng.randrange(4)
    return (rng.randrange(3), _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


_TREES = [_random_tree(random.Random(i), 4) for i in range(16)]
# Short rows: numpy keeps the interpreter lock on them, so a kernel on a
# campaign worker thread is not held up by the other worker.
_ROWS = np.random.default_rng(0).uniform(0.5, 1.5, (4, 150))


def _evaluate(tree, x):
    if isinstance(tree, int):
        return x[tree]
    op, a, b = tree
    a, b = _evaluate(a, x), _evaluate(b, x)
    return a + b if op == 0 else a - b if op == 1 else a * b


def kernel_s() -> float:
    """Seconds the fixed kernel takes now."""
    start = perf_counter()
    for tree in _TREES:
        float(np.sqrt(np.mean(_evaluate(tree, _ROWS) ** 2)))
    return perf_counter() - start


def speed_factor(kernel_samples) -> float:
    """REFERENCE_S over the kernel's mean time, trimmed of the top and bottom tenth.

    A kernel preempted by the scheduler or by another thread holding the
    interpreter lock is an outlier that says nothing about the speed.
    """
    ordered = sorted(kernel_samples)
    cut = len(ordered) // 10
    return REFERENCE_S / statistics.mean(ordered[cut : len(ordered) - cut])


class GenerationClock:
    """Times each `next_generation` call, each next to one kernel run.

    This is the only wrapper of an untraced run. samples holds a
    (generation seconds, kernel seconds) pair per call, from any thread.
    """

    def __init__(self):
        self.samples = []

    @contextmanager
    def installed(self, evolve):
        original = evolve.next_generation
        samples = self.samples

        def timed(*args, **kwargs):
            kernel = kernel_s()
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append((perf_counter() - start, kernel))

        evolve.next_generation = timed
        try:
            yield self
        finally:
            evolve.next_generation = original


def calibrated(wall: float, samples) -> float:
    """Calibrated seconds of an interval holding these generation samples.

    The kernels' own time is taken out of the wall time first.
    """
    kernels = [c for _, c in samples]
    return (wall - sum(kernels)) * speed_factor(kernels)


def calibrated_ms(samples) -> list:
    """Calibrated milliseconds of each (seconds, kernel seconds) sample."""
    return [t * REFERENCE_S / c * 1e3 for t, c in samples]
