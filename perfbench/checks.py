"""Reference checks the benchmark applies to every answer it times.

Written against plain Python sets and the definitions, with no calls
into ``rlid``, so a wrong answer cannot be confirmed by the code that
produced it.  Graphs are given as ``(n, edges)`` with 0-indexed pairs.
"""

from __future__ import annotations

import itertools


class CheckFailed(AssertionError):
    """The program returned a wrong answer; the run is aborted."""


def require(cond, message, *args):
    if not cond:
        raise CheckFailed(message % args if args else message)


# chi_rlid histogram per order over the connected labeled graphs of
# order 1..6, as computed by the solver at the commit that defined the
# benchmark; the counts also pin the catalog (27,476 graphs).
CATALOG6_HISTOGRAM = {
    1: {1: 1},
    2: {1: 1},
    3: {1: 1, 3: 3},
    4: {1: 1, 3: 37},
    5: {1: 1, 3: 460, 4: 192, 5: 75},
    6: {1: 1, 3: 8181, 4: 12690, 5: 5832},
}


def closed_neighborhoods(n, edges):
    closed = [{v} for v in range(n)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    return [frozenset(c) for c in closed]


def rlid_violations(n, edges, colors) -> int:
    """Adjacent non-twin pairs whose closed neighborhoods see equal color sets."""
    closed = closed_neighborhoods(n, edges)
    sets = [frozenset(colors[w] for w in c) for c in closed]
    return sum(
        1 for u, v in edges if closed[u] != closed[v] and sets[u] == sets[v]
    )


def is_proper(edges, colors) -> bool:
    return all(colors[u] != colors[v] for u, v in edges)


def colorable(n, edges, k) -> bool:
    """Brute-force proper k-colorability; meant for n <= 6."""
    return any(is_proper(edges, c) for c in itertools.product(range(k), repeat=n))


def check_coloring(n, edges, colors, palette):
    """A total rlid-valid coloring of (n, edges) with colors 1..palette."""
    require(len(colors) == n, "coloring covers %d of %d vertices", len(colors), n)
    require(
        all(1 <= c <= palette for c in colors),
        "colors %r outside 1..%d", sorted(set(colors)), palette,
    )
    bad = rlid_violations(n, edges, colors)
    require(bad == 0, "coloring has %d rlid violations", bad)
