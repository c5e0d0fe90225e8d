"""Small named graphs shared across test modules."""

from rlid import build_graph


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def wheel(rim):
    """A cycle on 0..rim-1 plus a hub rim adjacent to all of it."""
    return build_graph(rim + 1, [(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)])


def threshold_graph(clique):
    """Clique 0..clique-1 plus stable vertices clique + i seeing 0..i.

    Twin-free and split, with a maximal clique side, for i < clique - 1;
    a clique side of 1,050 is deeper than the interpreter's default
    recursion limit.
    """
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(clique + i, j) for i in range(clique - 1) for j in range(i + 1)]
    return build_graph(2 * clique - 1, edges)
