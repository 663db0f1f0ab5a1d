"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the CPU speed can drift by a factor of 1.5 to
2 over minutes, which moves every timing of a run together. The harness
therefore times this fixed pure-Python walk over a small tree of
objects (the same kind of work as the package's tree-walking
interpreter, but none of its code) next to the queries, and rescales the
timings to the speed at which one walk takes REFERENCE_S. The speed
switches within a second or so, so each query is rescaled by the walks
timed right around it:

    reported = measured * REFERENCE_S / median(walks just before and after)

A change to the package moves the reported numbers as it moves the
measured ones; a change in machine speed mostly cancels out. The raw
numbers are printed too.
"""

from __future__ import annotations

from time import perf_counter

#: one walk at the reference speed (a fixed scale, chosen so that reported
#: numbers read close to raw ones on the machine the baseline was taken on)
REFERENCE_S = 0.00005


class _Node:
    # a plain class: importing dataclasses here would take that import out
    # of the package's measured set-up time
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _build(depth):
    if depth == 0:
        return depth
    return _Node("+" if depth % 2 else "*", _build(depth - 1), _build(depth - 1))


_TREE = _build(8)  # about 25 KB: stays in cache whatever the query before it touched


def _walk(node, env):
    if isinstance(node, int):
        return env["x"]
    left, right = _walk(node.left, env), _walk(node.right, env)
    return left + right if node.op == "+" else left * right % 97


def sample() -> float:
    """Seconds for one walk, the fastest of three back to back, so that the
    cache state the query before it left does not count."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _walk(_TREE, {"x": 3})
        best = min(best, perf_counter() - start)
    return best


def median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    return ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2


def scale(samples) -> float:
    """Factor that rescales timings taken next to `samples` to the reference speed."""
    return REFERENCE_S / median(samples)


def rescale(timings, walks, reach=2):
    """Each timing rescaled by the median of the walks timed within `reach`
    positions of it (walks[i] was timed right after timings[i])."""
    return [t * scale(walks[max(0, i - reach): i + reach + 1]) for i, t in enumerate(timings)]
