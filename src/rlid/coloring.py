"""Colorings and the verification side of the library.

A coloring is a total map vertex -> positive color.  The central
predicate: an assignment is rlid-valid when every adjacent pair of
non-twin vertices gets distinct closed-neighborhood color sets.  lid
additionally demands properness and exempts nothing; id demands
distinct neighborhood color sets for all vertex pairs.

The bipartite three-coloring lives here too, below both ``solvers``
(whose ``cheap_bounds`` takes from it the one-color rule, the no-two
law's hypothesis and the bipartite-3 witness) and ``families`` (which
re-exports it): it is one level walk per component plus the rlid
verifier.  On a graph with twins the same walk colors each twin class
as the walk on the quotient would, without building the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, members


class ColoringError(ValueError):
    """Invalid coloring construction or verifier precondition."""


class TheoremCounterexample(RuntimeError):
    """A constructive algorithm failed.

    This is never raised for ordinary invalid input; seeing it means a
    guaranteed bound did not hold on a validated instance, which would
    be genuinely newsworthy.  It exists so that failure is loud.
    """


class Coloring:
    """Immutable vertex coloring with an explicit palette size."""

    __slots__ = ("colors", "palette")

    def __init__(self, colors, palette=None):
        colors = tuple(colors)
        for v, c in enumerate(colors):
            if type(c) is not int or c < 1:
                raise ColoringError("vertex %d has non-positive color %r" % (v, c))
        top = max(colors, default=0)
        if palette is None:
            palette = top
        if palette < top:
            raise ColoringError(
                "palette %d smaller than maximum used color %d" % (palette, top)
            )
        self.colors = colors
        self.palette = palette

    def __len__(self):
        return len(self.colors)

    def __getitem__(self, v):
        return self.colors[v]

    def __eq__(self, other):
        return (
            isinstance(other, Coloring)
            and self.colors == other.colors
            and self.palette == other.palette
        )

    def __hash__(self):
        return hash((self.colors, self.palette))

    def __repr__(self):
        return "Coloring(%r, palette=%d)" % (list(self.colors), self.palette)

    def used_colors(self):
        return frozenset(self.colors)


@dataclass(frozen=True, slots=True)
class Violation:
    """One re-checkable verification failure.

    ``kind`` is one of "colorset" (equal neighborhood color sets),
    "proper" (monochromatic edge), "twins" (structurally impossible
    pair), "code-equal" (equal code intersections) or "undominated"
    (empty code intersection, reported with u == v).  ``witness`` holds
    the offending shared set.
    """

    u: int
    v: int
    adjacent: bool
    kind: str
    witness: frozenset


@dataclass(frozen=True)
class VerificationReport:
    mode: str
    valid: bool
    violations: tuple

    def __bool__(self):
        return self.valid


def _check_sizes(g: Graph, c: Coloring):
    if len(c) != g.n:
        raise ColoringError(
            "coloring covers %d vertices but graph has %d" % (len(c), g.n)
        )


def _neighbor_lists(g: Graph):
    """Each vertex's sorted neighbour tuple, read from the form the
    graph holds; no masks are built."""
    return list(map(g.neighbors, range(g.n)))


def _closed_set(nbrs, v):
    """N[v] as a frozenset."""
    return frozenset((v, *nbrs[v]))


def _colorsets(nbrs, colors):
    """For each vertex v, the frozenset of the colors on N[v]."""
    return [frozenset([colors[v], *[colors[w] for w in t]]) for v, t in enumerate(nbrs)]


def _adjacent_twins(nbrs, u, v):
    """N[u] == N[v] for adjacent u and v: then N(u) - v and N(v) - u
    coincide, so the degrees match first."""
    return len(nbrs[u]) == len(nbrs[v]) and _closed_set(nbrs, u) == _closed_set(nbrs, v)


def _equal_pairs(keys):
    """Yield ``(u, v, keys[u])`` for each pair u < v with ``keys[u] ==
    keys[v]``, in ``itertools.combinations`` order.

    One dict groups the vertices by key, noting where each vertex sits
    in its group; the walk then takes u upward and pairs it with the
    later members of its group, so the cost is linear plus one step per
    pair, and a caller that stops at the first pair pays for the
    grouping and nothing more.
    """
    groups = {}
    place = []
    for v, key in enumerate(keys):
        group = groups.setdefault(key, [])
        place.append((group, len(group)))
        group.append(v)
    for u, (group, i) in enumerate(place):
        for j in range(i + 1, len(group)):
            yield u, group[j], keys[u]


def neighborhood_color_set(g: Graph, c: Coloring, v: int) -> frozenset:
    """Set of colors appearing on the closed neighborhood of v."""
    _check_sizes(g, c)
    if not 0 <= v < g.n:
        raise GraphError("vertex %d out of range" % v)
    return frozenset([c.colors[v], *[c.colors[w] for w in g.neighbors(v)]])


# -- verifiers ----------------------------------------------------------
#
# Each condition is written once, as a generator of its violations.
# verify_X collects them all; is_X stops at the first one, so
# is_X(g, c) == verify_X(g, c).valid holds by construction.


def _report(mode: str, violations) -> VerificationReport:
    bad = tuple(violations)
    return VerificationReport(mode, not bad, bad)


# The edge walks take each vertex u upward and its neighbours v > u in
# increasing order, which is the order of ``g.edges()``, without
# building that list.


def _rlid_violations(g: Graph, c: Coloring):
    _check_sizes(g, c)
    nbrs = _neighbor_lists(g)
    sets = _colorsets(nbrs, c.colors)
    for u, t in enumerate(nbrs):
        su = sets[u]
        for v in t:
            if v > u and sets[v] == su and not _adjacent_twins(nbrs, u, v):
                yield Violation(u, v, True, "colorset", su)


def _proper_violations(g: Graph, c: Coloring):
    _check_sizes(g, c)
    colors = c.colors
    for u, t in enumerate(_neighbor_lists(g)):
        cu = colors[u]
        for v in t:
            if v > u and colors[v] == cu:
                yield Violation(u, v, True, "proper", frozenset((cu,)))


def _lid_violations(g: Graph, c: Coloring):
    _check_sizes(g, c)
    colors = c.colors
    nbrs = _neighbor_lists(g)
    sets = _colorsets(nbrs, colors)
    for u, t in enumerate(nbrs):
        cu = colors[u]
        for v in t:
            if v < u:
                continue
            if colors[v] == cu:
                yield Violation(u, v, True, "proper", frozenset((cu,)))
            if _adjacent_twins(nbrs, u, v):
                yield Violation(u, v, True, "twins", _closed_set(nbrs, u))
            elif sets[u] == sets[v]:
                yield Violation(u, v, True, "colorset", sets[u])


def _id_violations(g: Graph, c: Coloring):
    _check_sizes(g, c)
    nbrs = _neighbor_lists(g)
    twins = False
    closed = [_closed_set(nbrs, v) for v in range(g.n)]
    for u, v, shared in _equal_pairs(closed):
        twins = True
        yield Violation(u, v, g.has_edge(u, v), "twins", shared)
    if twins:
        return
    del closed
    sets = _colorsets(nbrs, c.colors)
    for u, v, shared in _equal_pairs(sets):
        yield Violation(u, v, g.has_edge(u, v), "colorset", shared)


def _code_violations(g: Graph, code):
    members = set()
    for v in code:
        if not 0 <= v < g.n:
            raise GraphError("code vertex %d out of range" % v)
        members.add(v)
    nbrs = _neighbor_lists(g)
    traces = [_closed_set(nbrs, v) & members for v in range(g.n)]
    for v in range(g.n):
        if not traces[v]:
            yield Violation(v, v, False, "undominated", frozenset())
    for u, v, shared in _equal_pairs(traces):
        yield Violation(u, v, g.has_edge(u, v), "code-equal", shared)


def verify_rlid(g: Graph, c: Coloring) -> VerificationReport:
    """Check the relaxed locally identifying condition.

    Adjacent twins are exempt; every other adjacent pair must see
    distinct closed-neighborhood color sets.  The report lists every
    offending pair.
    """
    return _report("rlid", _rlid_violations(g, c))


def verify_proper(g: Graph, c: Coloring) -> VerificationReport:
    return _report("proper", _proper_violations(g, c))


def verify_lid(g: Graph, c: Coloring) -> VerificationReport:
    """Proper plus the identifying condition on all adjacent pairs.

    Adjacent twins can never be separated, so they come back as
    structural "twins" violations rather than an exemption.
    """
    return _report("lid", _lid_violations(g, c))


def verify_id(g: Graph, c: Coloring) -> VerificationReport:
    """Distinct neighborhood color sets for every vertex pair.

    A graph with twins admits no such coloring; only the twin pairs
    are reported then.
    """
    return _report("id", _id_violations(g, c))


def verify_identifying_code(g: Graph, code) -> VerificationReport:
    """Check that ``code`` dominates and separates all vertices.

    ``code`` is any iterable of vertices.  Violations: "undominated"
    for an empty intersection (u == v), "code-equal" for two vertices
    meeting the code identically.
    """
    return _report("id-code", _code_violations(g, code))


def is_rlid(g: Graph, c: Coloring) -> bool:
    """verify_rlid(g, c).valid, stopping at the first violation."""
    return next(_rlid_violations(g, c), None) is None


def is_proper(g: Graph, c: Coloring) -> bool:
    return next(_proper_violations(g, c), None) is None


def is_lid(g: Graph, c: Coloring) -> bool:
    return next(_lid_violations(g, c), None) is None


def is_id(g: Graph, c: Coloring) -> bool:
    return next(_id_violations(g, c), None) is None


def is_identifying_code(g: Graph, code) -> bool:
    return next(_code_violations(g, code), None) is None


# -- bipartite constructive coloring ------------------------------------


@dataclass(frozen=True)
class LevelDecomposition:
    """BFS levels plus the dead-end split used by the bipartite coloring.

    ``a_sets[i]`` holds the level-i vertices with no neighbor one level
    deeper; ``b_sets[i]`` the rest of the level.
    """

    root: int
    levels: tuple
    a_sets: tuple
    b_sets: tuple


# (dead-end color, other color) for BFS level i, indexed by i % 4
_LEVEL_COLORS = ((1, 1), (1, 2), (3, 3), (3, 2))


def _twin_edges_only(g: Graph, mask, twins: bool, root: int) -> bool:
    """No edge inside ``mask`` joins two vertices of different twin
    classes, edges at a twin of ``root`` aside; with ``twins`` false, no
    edge inside ``mask`` at all.  The closed-neighborhood masks are read
    only once an edge inside ``mask`` turns up."""
    adj = g.adj
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        inner = adj[v] & rest
        if not inner:
            continue
        if not twins:
            return False
        closed = g.closed
        exempt = closed[root]
        if closed[v] == exempt:
            continue
        for w in members(inner):
            if closed[w] != closed[v] and closed[w] != exempt:
                return False
    return True


def _level_colors(g: Graph, twins: bool):
    """The BFS-level coloring, unverified, as (one (root, level masks)
    part per component that is not a clique, colors), or None.

    Each component is walked from its first vertex that is not
    universal in it (a clique has none and keeps color 1): the
    quotient's smallest vertex unless that is a star's centre, the one
    root the table fails from.  With ``twins`` false, the component
    must be bipartite; with ``twins`` true, its twin quotient, and the
    walk runs on g itself: twins sit on one level, apart from the
    root's twins, which sit on level 1 next to all of it, so the
    quotient is bipartite exactly when every other edge inside a level
    joins twins, and each vertex gets the color its class gets in the
    quotient's walk (a root twin gets the root's, 1).
    """
    adj = g.adj
    colors = [1] * g.n
    parts = []
    rest = (1 << g.n) - 1
    while rest:
        root = (rest & -rest).bit_length() - 1
        if not _twin_edges_only(g, adj[root], twins, root):
            return None  # level 1 is checked before the walk, which it often saves
        level_masks, first = g.levels(root), 2
        comp = sum(level_masks)
        rest ^= comp
        if len(level_masks) < 3:  # the root is universal in its component
            root = next((v for v in members(comp) if adj[v] | 1 << v != comp), None)
            if root is None:
                continue  # a clique, whose quotient is one vertex
            level_masks, first = g.levels(root), 1
        for level in level_masks[first:]:
            if not _twin_edges_only(g, level, twins, root):
                return None
        for i, (level, deeper) in enumerate(zip(level_masks, level_masks[1:] + [0])):
            pair = _LEVEL_COLORS[i % 4]
            for v in members(level):
                colors[v] = pair[adj[v] & deeper != 0]
        parts.append((root, level_masks))
    return parts, colors


def _verified(g: Graph, colors, what: str) -> Coloring:
    """``colors`` as a Coloring once ``is_rlid`` accepts it on g;
    TheoremCounterexample otherwise, rather than return it quietly."""
    coloring = Coloring(colors)
    if is_rlid(g, coloring):
        return coloring
    raise TheoremCounterexample(
        "%s with no 3-color rlid coloring: edges=%r" % (what, g.edges())
    )


def quotient_three_coloring(g: Graph):
    """The verified level coloring of g when each component's twin
    quotient is one vertex (a clique, colored 1) or bipartite of order
    >= 3 (colored 1 to 3), or None for any other graph.

    The rlid condition exempts adjacent twins, and N[x] is the union of
    the twin classes of the quotient vertices in N[rep(x)].  So when
    each class takes the color its representative gets in the quotient,
    C(N[x]) is the color set of N[rep(x)] there, and an rlid coloring
    of the quotient lifts to g.  The coloring is the level coloring of
    the quotient, so on a bipartite graph (its own quotient) it is
    ``bipartite_three_coloring``'s.  No quotient is built: one level walk
    per component of g, which reads the closed-neighborhood masks only
    at an edge inside a level, so a bipartite graph never builds them.
    The result is verified once, on g.
    """
    found = _level_colors(g, True)
    if found is None:
        return None
    return _verified(g, found[1], "graph with bipartite twin quotients")


def bipartite_three_coloring(g: Graph):
    """Three-color a connected bipartite graph of order >= 3 via BFS
    levels; returns (coloring, decomposition).

    Levels are taken from vertex 0, or from vertex 1 when vertex 0 is
    universal (a star's centre, the one root the table fails from), a
    test on the open neighborhood masks, so the closed-neighborhood
    masks are never built.  The graph is bipartite exactly when no edge
    lies inside a level.  A miss costs at most a ``Graph.levels`` walk
    per component and one more before the GraphError is chosen: order
    below 3, then a disconnected graph, then an odd cycle.

    Level colors follow the residue table 1 / 1-or-2 / 3 / 3-or-2,
    where a level-i vertex counts as a dead end (first option) when it
    has no neighbor one level deeper.  The result is verified, and a
    TheoremCounterexample is raised rather than return an invalid
    coloring quietly.
    """
    parts, colors = _level_colors(g, False) or ((), None)
    if len(parts) != 1 or sum(parts[0][1]) != (1 << g.n) - 1:
        if g.n < 3:
            raise GraphError("need order >= 3, got %d" % g.n)
        if not g.is_connected():
            raise GraphError("need a connected graph")
        raise GraphError("graph is not bipartite")
    root, level_masks = parts[0]
    adj = g.adj
    levels, a_sets, b_sets = [], [], []
    for level, deeper in zip(level_masks, level_masks[1:] + [0]):
        vs = members(level)
        levels.append(vs)
        a_sets.append(tuple(v for v in vs if not adj[v] & deeper))
        b_sets.append(tuple(v for v in vs if adj[v] & deeper))
    decomp = LevelDecomposition(root, tuple(levels), tuple(a_sets), tuple(b_sets))
    return _verified(g, colors, "connected bipartite graph"), decomp
