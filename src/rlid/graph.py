"""Core graph machinery: neighbourhoods, twins, quotients, cliques.

Vertices are dense ints 0..n-1.  A graph built from edges keeps one
sorted tuple of neighbours per vertex, so parsing and verification
cost O(n + m).  The searches, clique and plan code read every
neighbourhood as one int bitmask instead, where closed-neighbourhood
comparisons, unions and symmetric differences cost a constant number
of word operations.  Two rules keep the stored form in one place:
``Graph.neighbors`` is the only accessor that reads it, and
``Graph.__getattr__`` is the only code that derives the masks (n bits
each), on first read, and keeps them.  ``Graph.levels`` is the only
breadth-first walk: reachability, components, ``bipartition`` and the
bipartite three-colouring read its level masks.  Twin classes (equal
closed neighbourhoods) are decided here only: ``twin_partition`` lists
them, and ``twin_representatives`` masks the smallest vertex of each,
the vertices ``quotient`` keeps.  A graph is structure
only: the roles of a generated family's vertices live on
``families.FamilyInstance``, and every file format lives in ``io``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass


class GraphError(ValueError):
    """Invalid graph construction or a violated operation precondition."""


class BudgetExceeded(RuntimeError):
    """A search ran past its node-expansion budget."""

    def __init__(self, message: str, nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


def _byte_table(shift: int) -> tuple:
    """For each byte value b, the set bit positions of ``b << shift``.

    Built by doubling: the entries for b + 2**i are those for b with
    ``shift + i`` appended.
    """
    table = ((),)
    for i in range(shift, shift + 8):
        table += tuple(t + (i,) for t in table)
    return table


_BYTE0, _BYTE1, _BYTE2, _BYTE3 = (_byte_table(shift) for shift in (0, 8, 16, 24))


def members(mask: int) -> tuple:
    """The set bit positions of ``mask`` in increasing order, as a tuple.

    ``mask`` must be a non-negative int; a negative one raises
    ``ValueError``.  Below 2**32 (graphs of up to 32 vertices) the answer
    is one to four byte-table lookups joined; a larger mask walks its
    set bits one at a time.
    """
    if mask < 0x100:
        if mask < 0:
            raise ValueError("members needs a non-negative mask")
        return _BYTE0[mask]
    if mask < 0x10000:
        return _BYTE0[mask & 0xFF] + _BYTE1[mask >> 8]
    if mask < 0x1000000:
        return _BYTE0[mask & 0xFF] + _BYTE1[mask >> 8 & 0xFF] + _BYTE2[mask >> 16]
    if mask < 0x100000000:
        return (_BYTE0[mask & 0xFF] + _BYTE1[mask >> 8 & 0xFF]
                + _BYTE2[mask >> 16 & 0xFF] + _BYTE3[mask >> 24])
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def check_vertex_count(n: int):
    if n < 0:
        raise GraphError("vertex count must be nonnegative, got %r" % (n,))


def neighbor_tuples(nbrs) -> tuple:
    """Each vertex's neighbour list as a sorted tuple without repeats,
    the form ``Graph.from_neighbor_tuples`` takes."""
    return tuple(map(tuple, map(sorted, map(set, nbrs))))


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    The graph keeps the form it was built from: ``Graph(n, edges)`` and
    ``from_neighbor_tuples`` keep a sorted neighbour tuple per vertex,
    ``from_adj_masks`` the open-neighbourhood bitmasks.  Two rules keep
    that choice in one place.  ``neighbors(v)`` is the only accessor
    that reads the stored form: it returns the stored tuple, or derives
    one from the mask on each call and keeps none, so a graph built from
    masks never holds tuples; ``degree``, ``has_edge``, ``edges``,
    ``edge_count``, equality and hashing read neighbourhoods through it.
    ``__getattr__`` is the only code that derives masks: ``adj[v]``, the
    open-neighbourhood bitmask, and ``closed[v]``, the closed one
    (``adj[v] | 1 << v``), are built on first read and then kept.
    A graph is structure only: the role names of a generated family's
    vertices live on ``families.FamilyInstance.roles``.
    """

    __slots__ = ("n", "_nbrs", "adj", "closed")

    def __init__(self, n: int, edges=()):
        check_vertex_count(n)
        nbrs = [[] for _ in range(n)]
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphError("edge %r is not a pair" % (e,)) from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError("edge (%r, %r) out of range for order %d" % (u, v, n))
            if u == v:
                raise GraphError("self-loop at vertex %d" % u)
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self._nbrs = neighbor_tuples(nbrs)

    @classmethod
    def from_adj_masks(cls, n, adj_masks):
        """Fast constructor from prevalidated open-neighborhood masks."""
        g = cls.__new__(cls)
        g.n = n
        g._nbrs = None
        g.adj = tuple(adj_masks)
        return g

    @classmethod
    def from_neighbor_tuples(cls, n, nbrs):
        """Fast constructor from prevalidated, sorted neighbour tuples."""
        g = cls.__new__(cls)
        g.n = n
        g._nbrs = tuple(nbrs)
        return g

    def __getattr__(self, name):
        # only unset slots land here: the masks, built on first read
        if name == "adj":
            self.adj = tuple([mask_of(t) for t in self._nbrs])
            return self.adj
        if name == "closed":
            self.closed = tuple([a | 1 << v for v, a in enumerate(self.adj)])
            return self.closed
        raise AttributeError(
            "%r object has no attribute %r" % (type(self).__name__, name), name=name, obj=self
        )

    # -- basic accessors ------------------------------------------------

    def neighbors(self, v: int) -> tuple:
        """The neighbours of v in increasing order; derived from the
        mask on each call when the graph holds masks."""
        if self._nbrs is not None:
            return self._nbrs[v]
        return members(self.adj[v])

    def _neighbor_tuples(self):
        return tuple(map(self.neighbors, range(self.n)))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        t = self.neighbors(u)
        i = bisect_left(t, v)
        return i < len(t) and t[i] == v

    def edges(self):
        nbrs = self._neighbor_tuples()
        return [(u, w) for u, t in enumerate(nbrs) for w in t[bisect_right(t, u):]]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._neighbor_tuples())) // 2

    def __eq__(self, other):
        if not isinstance(other, Graph) or self.n != other.n:
            return False
        return self._neighbor_tuples() == other._neighbor_tuples()

    def __hash__(self):
        return hash((self.n, self._neighbor_tuples()))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.edge_count)

    # -- structure ------------------------------------------------------

    def levels(self, s: int) -> list:
        """The breadth-first levels from s as disjoint vertex masks:
        level i holds the vertices at distance i from s, so their sum
        is the mask of the vertices s reaches.  This is the only
        breadth-first walk in the package.
        """
        adj = self.adj
        seen = frontier = 1 << s
        out = []
        while frontier:
            out.append(frontier)
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= frontier
        return out

    def components(self):
        """Connected components as sorted vertex lists, ordered by minimum."""
        out = []
        rest = (1 << self.n) - 1
        while rest:
            comp = sum(self.levels((rest & -rest).bit_length() - 1))
            rest ^= comp
            out.append(list(members(comp)))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or sum(self.levels(0)) == (1 << self.n) - 1

    def induced(self, vertices):
        """Induced subgraph on ``vertices``; old index order is preserved.

        Returns ``(graph, old_of_new)`` where ``old_of_new[i]`` is the
        original index of new vertex ``i``.
        """
        old = sorted(vertices)
        pos = {v: i for i, v in enumerate(old)}
        keep = mask_of(old)
        adj = []
        for v in old:
            m = 0
            for w in members(self.adj[v] & keep):
                m |= 1 << pos[w]
            adj.append(m)
        return Graph.from_adj_masks(len(old), adj), old

    def complement(self):
        full = (1 << self.n) - 1
        adj = [full & ~self.closed[v] for v in range(self.n)]
        return Graph.from_adj_masks(self.n, adj)


def build_graph(order: int, edges) -> Graph:
    """Validate and build a graph; duplicate edges collapse silently."""
    return Graph(order, edges)


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """Graph whose edge set is selected by ``mask`` over lexicographic pairs.

    Bit i of ``mask`` toggles the i-th pair in
    ``itertools.combinations(range(n), 2)`` order.  Used by exhaustive
    enumeration and by randomized tests; the numbering is part of the
    contract.
    """
    adj = [0] * n
    for i, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        if mask >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph.from_adj_masks(n, adj)


def edge_mask(g: Graph) -> int:
    """Inverse of graph_from_edge_mask: ``graph_from_edge_mask(g.n, edge_mask(g))``
    rebuilds g."""
    # the pairs (u, u + 1), ..., (u, n - 1) are numbered consecutively
    # from ``first``, in the order of the bits of adj[u] above u
    mask = first = 0
    for u, a in enumerate(g.adj):
        mask |= a >> (u + 1) << first
        first += g.n - u - 1
    return mask


# -- twins and quotient -------------------------------------------------


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertex set into closed-neighborhood classes.

    ``classes`` are sorted internally and ordered by their minimum
    member; ``t`` counts classes of size at least two.
    ``representative_map``, derived from ``classes`` on each read,
    sends each vertex to the minimum vertex of its class.
    """

    classes: tuple
    t: int

    @property
    def representatives(self):
        return tuple(c[0] for c in self.classes)

    @property
    def representative_map(self):
        return {v: cls[0] for cls in self.classes for v in cls}


def are_twins(g: Graph, u: int, v: int) -> bool:
    """True when u and v share the same closed neighborhood."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError("vertex pair (%r, %r) out of range" % (u, v))
    return g.closed[u] == g.closed[v]


def twin_partition(g: Graph) -> TwinPartition:
    groups = {}  # keyed in at each class's minimum, so in class order
    for v, cv in enumerate(g.closed):
        groups.setdefault(cv, []).append(v)
    classes = tuple(map(tuple, groups.values()))
    t = sum(1 for cls in classes if len(cls) >= 2)
    return TwinPartition(classes, t)


def twin_representatives(g: Graph) -> int:
    """The smallest vertex of each twin class, as a mask: the vertices of
    ``quotient(g)``, in one pass over the closed neighbourhoods."""
    first = {}
    for v, cv in enumerate(g.closed):
        first.setdefault(cv, 1 << v)
    return sum(first.values())


def is_twin_free(g: Graph) -> bool:
    return len(set(g.closed)) == g.n


def quotient(g: Graph):
    """Induced subgraph on minimum-index twin-class representatives.

    Returns ``(graph, partition)``.  The quotient of a twin-free graph
    is the graph itself: that input comes back as is, not rebuilt.
    Quotients are always twin-free.
    """
    part = twin_partition(g)
    return (g.induced(part.representatives)[0] if part.t else g), part


# -- cliques ------------------------------------------------------------


def max_clique(g: Graph, budget=None, within=None) -> tuple:
    """A maximum clique, as its vertices in increasing order, by branch
    and bound; ``within`` optionally limits it to the vertices of a mask.

    Uses a greedy-coloring upper bound for pruning.  The search runs on
    an explicit stack, so a clique deeper than the interpreter's
    recursion limit needs no recursion.  ``budget`` is an
    optional node budget (see solvers.Budget); on exhaustion the search
    raises BudgetExceeded rather than return an unproven clique.  The
    first clique of the largest size found wins, so the answer is
    deterministic.
    """
    if g.n == 0:
        return ()
    adj = g.adj
    best = 0
    best_size = 0

    def greedy_order(p_mask):
        # First-fit coloring of the candidates in index order, one color
        # class at a time; vertices come back sorted by color, which
        # makes size+color an admissible bound during expansion.
        out = []
        color = 0
        while p_mask:
            color += 1
            q = p_mask
            while q:
                low = q & -q
                v = low.bit_length() - 1
                out.append((v, color))
                p_mask ^= low
                q &= ~(adj[v] | low)
        return out

    # explicit stack of [candidates, clique so far, size, greedy
    # sequence, next index]; the sequence is walked from its end,
    # highest color first
    stack = []

    def expand(p_mask, clique, size):
        nonlocal best, best_size
        if budget is not None:
            budget.spend()
        if not p_mask:
            if size > best_size:
                best, best_size = clique, size
            return
        seq = greedy_order(p_mask)
        stack.append([p_mask, clique, size, seq, len(seq) - 1])

    expand((1 << g.n) - 1 if within is None else within, 0, 0)
    while stack:
        frame = stack[-1]
        p_mask, clique, size, seq, i = frame
        if i < 0 or size + seq[i][1] <= best_size:
            stack.pop()
            continue
        v = seq[i][0]
        frame[0] = p_mask & ~(1 << v)
        frame[4] = i - 1
        expand(p_mask & adj[v], clique | 1 << v, size + 1)
    return members(best)


def max_clique_size(g: Graph, budget=None) -> int:
    """Exact maximum clique size: the length of ``max_clique``."""
    return len(max_clique(g, budget))


# -- bipartition, degeneracy, join --------------------------------------


def bipartition(g: Graph):
    """Two-color the graph; returns (side0, side1) frozensets or None.

    Each component is walked by ``Graph.levels`` from its minimum
    vertex: even levels go to side0, odd ones to side1.  Returns None
    when some component holds an odd cycle, which is exactly when an
    edge joins two vertices of one level.
    """
    adj = g.adj
    sides = [0, 0]
    rest = (1 << g.n) - 1
    while rest:
        levels = g.levels((rest & -rest).bit_length() - 1)
        for i, level in enumerate(levels):
            for v in members(level):
                if adj[v] & level:
                    return None
            sides[i & 1] |= level
        rest ^= sum(levels)
    return frozenset(members(sides[0])), frozenset(members(sides[1]))


def degeneracy(g: Graph):
    """Degeneracy and its elimination order.

    Returns ``(k, order)`` where ``order`` repeatedly removes a
    minimum-degree vertex (smallest index on ties).  ``bucket[d]`` is
    the mask of the live vertices of degree d, so the next vertex is
    the lowest bit of the first non-empty bucket; a removal lowers each
    live neighbor's degree by one, so that bucket is never below the
    removed vertex's degree minus one, where the next scan starts.
    """
    n, adj = g.n, g.adj
    alive = (1 << n) - 1
    deg = [a.bit_count() for a in adj]
    bucket = [0] * n
    for v, d in enumerate(deg):
        bucket[d] |= 1 << v
    order = []
    k = d = 0
    for _ in range(n):
        while not bucket[d]:
            d += 1
        live = bucket[d]
        low = live & -live
        bucket[d] = live ^ low
        if d > k:
            k = d
        v = low.bit_length() - 1
        order.append(v)
        alive ^= low
        rest = adj[v] & alive
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            dw = deg[w]
            bucket[dw] ^= low
            bucket[dw - 1] |= low
            deg[w] = dw - 1
            rest ^= low
        if d:
            d -= 1
    return k, order


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts."""
    n1, n2 = g1.n, g2.n
    shift_all = ((1 << n2) - 1) << n1
    adj = []
    for v in range(n1):
        adj.append(g1.adj[v] | shift_all)
    low_all = (1 << n1) - 1
    for v in range(n2):
        adj.append((g2.adj[v] << n1) | low_all)
    return Graph.from_adj_masks(n1 + n2, adj)


# -- isomorphism --------------------------------------------------------


def _refine_classes(nbrs1, nbrs2):
    """Joint 1-dimensional color refinement of both vertex sets, given
    each graph's neighbor tuples.

    Returns (colors1, colors2) with comparable integer classes, or None
    when the class multisets already separate the graphs.
    """
    n = len(nbrs1)
    col1 = [len(t) for t in nbrs1]
    col2 = [len(t) for t in nbrs2]
    for _ in range(n):
        sig = {}
        new1, new2 = [], []
        for nbrs, col, new in ((nbrs1, col1, new1), (nbrs2, col2, new2)):
            for v in range(n):
                key = (col[v], tuple(sorted([col[w] for w in nbrs[v]])))
                new.append(sig.setdefault(key, len(sig)))
        if sorted(new1) != sorted(new2):
            return None
        if new1 == col1 and new2 == col2:
            break
        col1, col2 = new1, new2
    return col1, col2


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test: refinement plus backtracking matching,
    intended for small graphs."""
    if g1.n != g2.n:
        return False
    n = g1.n
    if n == 0:
        return True
    # equal degree sequences also mean equal edge counts
    if sorted(map(int.bit_count, g1.adj)) != sorted(map(int.bit_count, g2.adj)):
        return False
    nbrs1 = g1._neighbor_tuples()
    refined = _refine_classes(nbrs1, g2._neighbor_tuples())
    if refined is None:
        return False
    col1, col2 = refined
    class_size = {}
    for c in col1:
        class_size[c] = class_size.get(c, 0) + 1
    candidates = {}
    for c in set(col1):
        candidates[c] = [w for w in range(n) if col2[w] == c]

    # Vertex order: rarest refinement class first, then stay connected to
    # the already-mapped prefix so adjacency pruning bites early.
    order = []
    placed = 0
    remaining = set(range(n))
    while remaining:
        attached = [v for v in remaining if g1.adj[v] & placed]
        pool = attached if attached else list(remaining)
        v = min(pool, key=lambda x: (class_size[col1[x]], -(g1.adj[x] & placed).bit_count(), x))
        order.append(v)
        remaining.remove(v)
        placed |= 1 << v

    # explicit stack of [vertex, images of its mapped neighbors, images
    # used before it, next candidate index], one frame per mapped prefix
    # position, so an order deeper than the recursion limit needs no
    # recursion
    image = [-1] * n
    stack = []

    def push(v, used2):
        adj_imaged = 0
        for w in nbrs1[v]:
            if image[w] >= 0:
                adj_imaged |= 1 << image[w]
        stack.append([v, adj_imaged, used2, 0])

    push(order[0], 0)
    while stack:
        frame = stack[-1]
        v, adj_imaged, used2, j = frame
        image[v] = -1
        cands = candidates[col1[v]]
        while j < len(cands):
            w = cands[j]
            j += 1
            if used2 >> w & 1:
                continue
            if g2.adj[w] & used2 == adj_imaged:
                break
        else:
            stack.pop()
            continue
        frame[3] = j
        image[v] = w
        if len(stack) == n:
            return True
        push(order[len(stack)], used2 | 1 << w)
    return False
