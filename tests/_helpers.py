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


def grid(rows, cols):
    """The rows x cols grid graph, vertex r * cols + c at row r, column c."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return build_graph(rows * cols, edges)


def blow_up(g, t):
    """g with each vertex v replaced by a clique of t twins, v * t to
    v * t + t - 1, and each edge by all t * t edges between two cliques."""
    edges = [(v * t + i, v * t + j) for v in range(g.n) for i in range(t) for j in range(i + 1, t)]
    edges += [(u * t + i, v * t + j) for u, v in g.edges() for i in range(t) for j in range(t)]
    return build_graph(g.n * t, edges)
