"""Named graph families, the subdivision gadget, and the constructive
coloring algorithms (bipartite three-coloring, split separators).

Every generator fixes a deterministic vertex numbering, attaches role
labels that encode the construction bijectively, and checks its own
canonical coloring with the verifier before handing the instance out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coloring import Coloring, ColoringError, is_proper, is_rlid, verify_rlid
from .graph import (
    Graph,
    GraphError,
    bipartition,
    bits,
    build_graph,
    is_twin_free,
    mask_of,
    quotient,
)

class TheoremCounterexample(RuntimeError):
    """A constructive algorithm failed.

    This is never raised for ordinary invalid input; seeing it means a
    guaranteed bound did not hold on a validated instance, which would
    be genuinely newsworthy.  It exists so that failure is loud.
    """


@dataclass(frozen=True)
class FamilyInstance:
    """A generated graph with its bookkeeping.

    ``canonical_coloring`` (when present) has been checked rlid-valid
    at generation time.  ``expected_chi_rlid`` carries the known
    optimum with a short provenance note.  ``roles`` names every
    vertex.
    """

    graph: Graph
    canonical_coloring: Coloring | None
    expected_chi_rlid: int | None
    provenance: str | None
    roles: dict


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


@dataclass(frozen=True)
class SplitPartition:
    """Clique/stable bipartition of a split graph."""

    clique: frozenset
    stable: frozenset


def _instance(g, colors, palette, expected, provenance, roles):
    coloring = None
    if colors is not None:
        coloring = Coloring(colors, palette=palette)
        report = verify_rlid(g, coloring)
        if not report.valid:
            raise AssertionError(
                "canonical coloring failed verification: %r" % (report.violations[:3],)
            )
    return FamilyInstance(g, coloring, expected, provenance, dict(enumerate(roles)))


# -- basic families -----------------------------------------------------


def star(p: int) -> FamilyInstance:
    """K_{1,p}: center 0, leaves 1..p, canonical coloring (1, 2, 3, 3, ...)."""
    if p < 2:
        raise GraphError("star needs at least 2 leaves, got %r" % (p,))
    edges = [(0, v) for v in range(1, p + 1)]
    roles = ["center"] + ["leaf:%d" % v for v in range(1, p + 1)]
    g = build_graph(p + 1, edges, roles)
    colors = [1, 2] + [3] * (p - 1)
    return _instance(
        g, colors, 3, 3,
        "smallest non-clique case; three colors are optimal", roles,
    )


def power_path(k: int) -> Graph:
    """(k-1)-th power of the path on 2k vertices.

    Vertices i, j are adjacent when 0 < |i - j| <= k - 1.  These are
    exactly the join factors (besides two isolated vertices) that force
    a full-palette coloring.
    """
    if k < 2:
        raise GraphError("power_path needs k >= 2, got %r" % (k,))
    n = 2 * k
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, min(i + k, n))
    ]
    labels = ["p:%d" % i for i in range(n)]
    return build_graph(n, edges, labels)


def h_p(p: int) -> FamilyInstance:
    """Clique of size 2^p wired to three stable rows of size p.

    Clique vertices x_Q are indexed by subsets Q of {1..p} (subset
    bitmask order).  Rows: y_i pends off the singleton clique vertices,
    y'_i off y_i, and z_i attaches to every x_Q with i in Q and
    |Q| >= 2.  The canonical (p+1)-coloring meets the logarithmic
    lower bound, so the optimum is exactly p + 1.
    """
    if p < 2:
        raise GraphError("h_p needs p >= 2, got %r" % (p,))
    csize = 1 << p
    y0 = csize
    yp0 = csize + p
    z0 = csize + 2 * p
    n = csize + 3 * p
    edges = list(itertools.combinations(range(csize), 2))
    for i in range(1, p + 1):
        edges.append((1 << (i - 1), y0 + i - 1))
        edges.append((y0 + i - 1, yp0 + i - 1))
    for q in range(csize):
        if q.bit_count() >= 2:
            for i in bits(q):
                edges.append((q, z0 + i))
    roles = ["x:{%s}" % ",".join(str(i + 1) for i in bits(q)) for q in range(csize)]
    roles += ["y:%d" % i for i in range(1, p + 1)]
    roles += ["y':%d" % i for i in range(1, p + 1)]
    roles += ["z:%d" % i for i in range(1, p + 1)]
    g = build_graph(n, edges, roles)
    colors = [p + 1] * csize
    colors += [i for i in range(1, p + 1)]           # y_i
    colors += [(i % p) + 1 for i in range(1, p + 1)]  # y'_i: cyclic successor
    colors += [i for i in range(1, p + 1)]           # z_i
    return _instance(
        g, colors, p + 1, p + 1,
        "clique 2^p forces ceil(log2 omega)+1 = p+1; the canonical coloring attains it",
        roles,
    )


# -- the subdivision gadget ---------------------------------------------


def _check_gadget_input(g: Graph):
    if g.n < 3:
        raise GraphError("gadget needs order >= 3, got %d" % g.n)
    if not g.is_connected():
        raise GraphError("gadget input must be connected")


def g_star(g: Graph) -> FamilyInstance:
    """Subdivide every edge into a path of length 3 and pend a leaf on
    every original vertex.

    Numbering: originals keep 0..n-1, then the two subdivision vertices
    of each edge in lexicographic edge order (near the smaller endpoint
    first), pendants last.  For k >= 3 the result is k-rlid-colorable
    exactly when the input is properly k-colorable.
    """
    _check_gadget_input(g)
    edges_in = g.edges()
    n = g.n
    sub0 = n
    pend0 = n + 2 * len(edges_in)
    total = pend0 + n
    edges = []
    roles = ["orig:%d" % v for v in range(n)]
    for idx, (u, v) in enumerate(edges_in):
        a = sub0 + 2 * idx
        b = a + 1
        edges += [(u, a), (a, b), (b, v)]
    for idx, (u, v) in enumerate(edges_in):
        roles.append("subdiv:%d-%d:near-%d" % (u, v, u))
        roles.append("subdiv:%d-%d:near-%d" % (u, v, v))
    for v in range(n):
        edges.append((v, pend0 + v))
        roles.append("pendant:%d" % v)
    out = build_graph(total, edges, roles)
    return FamilyInstance(
        out, None, None,
        "edge subdivision gadget; color it by lifting a proper coloring",
        dict(enumerate(roles)),
    )


def lift_coloring_gstar(g: Graph, c: Coloring, k: int, inst: FamilyInstance | None = None) -> Coloring:
    """Lift a proper k-coloring of g to an rlid coloring of its gadget.

    Originals keep their color; the pendant of x copies the color of
    x's minimum-index neighbor; both subdivision vertices of an edge uv
    take the smallest color outside {c(u), c(v)} (k >= 3 guarantees one
    exists).  The gadget's numbering follows from g alone, so ``inst``
    (the gadget, if the caller has built it) is not read.
    """
    if k < 3:
        raise ColoringError("lift needs k >= 3, got %r" % (k,))
    if len(c) != g.n:
        raise ColoringError("coloring does not cover the input graph")
    if max(c.colors, default=0) > k:
        raise ColoringError("coloring uses colors beyond %d" % k)
    if not is_proper(g, c):
        raise ColoringError("lift requires a proper coloring of the input")
    _check_gadget_input(g)
    edges_in = g.edges()
    n = g.n
    out = list(c.colors)
    for u, v in edges_in:
        q = next(x for x in range(1, k + 1) if x != c.colors[u] and x != c.colors[v])
        out += [q, q]
    for v in range(n):
        out.append(c.colors[min(bits(g.adj[v]))])
    return Coloring(out, palette=k)


def project_coloring_gstar(gstar: FamilyInstance, c: Coloring) -> Coloring:
    """Restrict an rlid coloring of the gadget to the original vertices.

    The restriction is guaranteed proper on the base graph: equal
    endpoint colors would hand both subdivision vertices of that edge
    the same neighborhood color set.
    """
    g = gstar.graph
    if len(c) != g.n:
        raise ColoringError("coloring does not cover the gadget")
    if not is_rlid(g, c):
        raise ColoringError("projection input must be rlid-valid on the gadget")
    n_base = sum(1 for r in gstar.roles.values() if r.startswith("orig:"))
    return Coloring(c.colors[:n_base])


# -- split-bound families ----------------------------------------------


def q1(p: int) -> FamilyInstance:
    """Split graph whose optimum sits at the logarithmic lower bound + 1.

    Clique: x_Q for all subsets Q of {1..p-1} (2^(p-1) vertices).
    Stable: s_1..s_{p-1}, with x_Q adjacent to s_i exactly when i is
    in Q.  Canonical coloring: s_i -> i, x_Q -> p for nonempty Q,
    the empty-set vertex -> p + 1.
    """
    if p < 2:
        raise GraphError("q1 needs p >= 2, got %r" % (p,))
    csize = 1 << (p - 1)
    n = csize + (p - 1)
    edges = list(itertools.combinations(range(csize), 2))
    for q in range(csize):
        for i in bits(q):
            edges.append((q, csize + i))
    roles = ["x:{%s}" % ",".join(str(i + 1) for i in bits(q)) for q in range(csize)]
    roles += ["s:%d" % i for i in range(1, p)]
    g = build_graph(n, edges, roles)
    colors = [p + 1] + [p] * (csize - 1) + [i for i in range(1, p)]
    return _instance(
        g, colors, p + 1, p + 1,
        "split instance meeting ceil(log2 omega)+2",
        roles,
    )


def q2(p: int) -> FamilyInstance:
    """Split graph whose optimum sits at the clique upper range: omega + 1.

    Clique v_1..v_p; stable s_1..s_{p-1}; the only cross edges are
    v_i s_i.  Canonical coloring: s_i -> i, v_i -> p for i < p,
    v_p -> p + 1.
    """
    if p < 2:
        raise GraphError("q2 needs p >= 2, got %r" % (p,))
    n = 2 * p - 1
    edges = list(itertools.combinations(range(p), 2))
    for i in range(p - 1):
        edges.append((i, p + i))
    roles = ["v:%d" % i for i in range(1, p + 1)]
    roles += ["s:%d" % i for i in range(1, p)]
    g = build_graph(n, edges, roles)
    colors = [p] * (p - 1) + [p + 1] + [i for i in range(1, p)]
    return _instance(
        g, colors, p + 1, p + 1,
        "split instance meeting omega+1; one clique vertex has no stable neighbor",
        roles,
    )


def prop1_graph(p: int) -> FamilyInstance:
    """Gadget over a clique, plus planted twins: the quotient gap family.

    Take the subdivision gadget of K_{p+t} with t = C(p-1, 2), then add
    a twin y_i for each of the first t originals.  Collapsing twins
    jumps the optimum from p up to p + t, so the quotient sandwich is
    tight at its lower end.

    Canonical p-coloring: originals x_{t+1}..x_{t+p} get 1..p; the twin
    pairs (x_i, y_i) enumerate the 2-subsets of {1..p-1}
    lexicographically; subdivision vertices get p, except the pair on
    the edge joining the vertices colored 1 and p, which gets p-1;
    pendants of twinned originals get the smallest color their pair
    leaves free, other pendants get 1, or 2 when their vertex has
    color 1.
    """
    if p < 4:
        raise GraphError("prop1_graph needs p >= 4, got %r" % (p,))
    t = (p - 1) * (p - 2) // 2
    m = p + t
    base = build_graph(m, itertools.combinations(range(m), 2))
    star_inst = g_star(base)
    core = star_inst.graph
    n = core.n + t
    edges = core.edges()
    for i in range(t):
        twin = core.n + i
        edges.append((twin, i))
        for w in bits(core.adj[i]):
            edges.append((twin, w))
    roles = []
    for v, r in sorted(star_inst.roles.items()):
        if r.startswith("orig:"):
            roles.append("x:%d" % (int(r.split(":")[1]) + 1))
        elif r.startswith("pendant:"):
            roles.append("z:%d" % (int(r.split(":")[1]) + 1))
        else:
            _, uv, near = r.split(":")
            u, v2 = uv.split("-")
            w = near.removeprefix("near-")
            roles.append("subdiv:%d-%d:near-%d" % (int(u) + 1, int(v2) + 1, int(w) + 1))
    roles += ["y:%d" % i for i in range(1, t + 1)]
    g = build_graph(n, edges, roles)

    colors = [0] * n
    pairs = list(itertools.combinations(range(1, p), 2))
    assert len(pairs) == t
    for i in range(t):
        colors[i] = pairs[i][0]
        colors[core.n + i] = pairs[i][1]
    for i in range(1, p + 1):
        colors[t + i - 1] = i
    edges_in = base.edges()
    sub0 = m
    # the exceptional pair sits on the edge joining the vertices colored
    # 1 and p; without it the p-colored vertex and its pendant would
    # share the color set {1, p}
    special = (t, t + p - 1)
    for idx, (u, v) in enumerate(edges_in):
        q = p - 1 if (min(u, v), max(u, v)) == special else p
        colors[sub0 + 2 * idx] = q
        colors[sub0 + 2 * idx + 1] = q
    pend0 = m + 2 * len(edges_in)
    for i in range(1, m + 1):
        v = pend0 + i - 1
        if i <= t:
            pair = {colors[i - 1], colors[core.n + i - 1]}
            colors[v] = min(x for x in range(1, p) if x not in pair)
        else:
            colors[v] = 1 if colors[i - 1] != 1 else 2
    return _instance(
        g, colors, p, p,
        "twin collapse drops the optimum from p+t to p; quotient sandwich is tight",
        roles,
    )


# -- bipartite constructive coloring ------------------------------------

# (dead-end color, other color) for BFS level i, indexed by i % 4
_LEVEL_COLORS = ((1, 1), (1, 2), (3, 3), (3, 2))


def bipartite_three_coloring(g: Graph):
    """Three-color a connected bipartite graph via BFS levels.

    Returns (coloring, decomposition).  Levels are taken from vertex 0,
    or from vertex 1 when vertex 0 is universal: the only universal
    vertex a connected bipartite graph can have is a star's centre,
    the one root the table fails from.  Level colors follow the
    residue table 1 / 1-or-2 / 3 / 3-or-2, where a level-i vertex
    counts as a dead end (first option) when it has no neighbor one
    level deeper.  The result is verified, and a TheoremCounterexample
    is raised rather than return an invalid coloring quietly.
    """
    if g.n < 3:
        raise GraphError("need order >= 3, got %d" % g.n)
    if not g.is_connected():
        raise GraphError("need a connected graph")
    if bipartition(g) is None:
        raise GraphError("graph is not bipartite")

    root = 1 if g.closed[0] == (1 << g.n) - 1 else 0
    dist = [-1] * g.n
    dist[root] = 0
    frontier = [root]
    levels = [[root]]
    while frontier:
        nxt = []
        for v in frontier:
            for w in bits(g.adj[v]):
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        if nxt:
            nxt.sort()
            levels.append(nxt)
        frontier = nxt
    level_masks = [mask_of(lv) for lv in levels]
    a_sets, b_sets = [], []
    colors = [0] * g.n
    for i, lv in enumerate(levels):
        deeper = level_masks[i + 1] if i + 1 < len(levels) else 0
        a = tuple(v for v in lv if not (g.adj[v] & deeper))
        b = tuple(v for v in lv if g.adj[v] & deeper)
        a_sets.append(a)
        b_sets.append(b)
        dead_end_color, other_color = _LEVEL_COLORS[i % 4]
        for v in a:
            colors[v] = dead_end_color
        for v in b:
            colors[v] = other_color
    decomp = LevelDecomposition(
        root, tuple(tuple(lv) for lv in levels), tuple(a_sets), tuple(b_sets)
    )
    coloring = Coloring(colors, palette=3)
    if is_rlid(g, coloring):
        return coloring, decomp
    raise TheoremCounterexample(
        "connected bipartite graph with no 3-color rlid coloring: edges=%r" % (g.edges(),)
    )


# -- split graphs: recognition, separator, coloring ---------------------


def find_split_partition(g: Graph) -> SplitPartition | None:
    """Split recognition from the degree sequence in O(n log n)
    (Hammer and Simeone, "The splittance of a graph", 1981).

    Sort the vertices by (-degree, index) and let m count the positions
    i, from 0, whose degree d_i is at least i.  The graph is split
    exactly when d_0 + ... + d_{m-1} = m(m - 1) + d_m + ... + d_{n-1},
    and then the first m vertices form a maximum clique whose
    complement is stable.  Degree ties go to the smaller index, so the
    clique side is the first maximum one in subset-mask order.  Returns
    None when the graph is not split.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    deg = [g.degree(v) for v in order]
    m = sum(1 for i, d in enumerate(deg) if d >= i)
    if sum(deg[:m]) != m * (m - 1) + sum(deg[m:]):
        return None
    return SplitPartition(frozenset(order[:m]), frozenset(order[m:]))


def _validate_split(g: Graph, part: SplitPartition, for_separator: bool):
    kmask = mask_of(part.clique)
    smask = mask_of(part.stable)
    if kmask & smask or (kmask | smask) != (1 << g.n) - 1:
        raise GraphError("clique and stable parts must partition the vertex set")
    for v in bits(kmask):
        if g.adj[v] & kmask != kmask ^ (1 << v):
            raise GraphError("clique part is not complete at vertex %d" % v)
    for v in bits(smask):
        if g.adj[v] & smask:
            raise GraphError("stable part has an internal edge at vertex %d" % v)
    if for_separator:
        if not g.is_connected():
            raise GraphError("separator construction needs a connected graph")
        if not is_twin_free(g):
            raise GraphError("separator construction needs a twin-free graph")
        for v in bits(smask):
            if g.adj[v] & kmask == kmask:
                raise GraphError(
                    "clique part is not maximal: stable vertex %d sees all of it" % v
                )
    return kmask, smask


def split_separator(g: Graph, part: SplitPartition) -> frozenset:
    """Separator S' inside the stable part: at most |K|-1 vertices whose
    closed-neighborhood intersections are pairwise distinct over K.

    The minimum-index useful stable vertex u splits K into its
    neighbors and the rest, u separates the halves, and each half is
    separated in turn.  Stable vertices stay candidates in every half
    they still have a neighbor in, which preserves a distinguisher for
    every clique pair all the way down.  The halves wait on an
    explicit stack, so a deep clique side needs no recursion.
    """
    kmask, smask = _validate_split(g, part, for_separator=True)
    adj = g.adj
    sep = set()
    todo = [(kmask, sorted(part.stable))]
    while todo:
        K, cands = todo.pop()
        if K.bit_count() <= 1:
            continue
        cands = [v for v in cands if adj[v] & K]
        # skip the stable vertices that see this whole clique part:
        # they separate nothing here
        i = 0
        while i < len(cands) and adj[cands[i]] & K == K:
            i += 1
        if i == len(cands):
            raise AssertionError(
                "clique pair left unseparated; twin-free validation should prevent this"
            )
        u = cands[i]
        k1 = adj[u] & K
        k2 = K & ~k1
        rest = cands[i + 1:]
        sep.add(u)
        todo.append((k2, rest))
        todo.append((k1, rest))
    sep = frozenset(sep)
    assert len(sep) <= max(len(part.clique) - 1, 0)
    return sep


def _maximalize_split(g: Graph, part: SplitPartition) -> SplitPartition:
    """Move the minimum-index stable vertex that sees the whole clique
    side across, if there is one.

    The stable side is independent, so no other stable vertex sees the
    grown clique side: one pass is enough.
    """
    kmask = mask_of(part.clique)
    for v in sorted(part.stable):
        if g.adj[v] & kmask == kmask:
            return SplitPartition(part.clique | {v}, part.stable - {v})
    return part


def _split_case_colors(g: Graph, part: SplitPartition) -> list:
    """The case table on a connected twin-free split graph whose clique
    side K is maximal, so |K| = omega.

    Separator vertices S' get 1..|S'| by index and every other vertex
    gets e1 = |S'| + 1; at most three vertices are then overridden with
    e2 = e1 + 1 or e3 = e1 + 2, so at most omega + 2 colors are used.
    Overrides never touch S', so S' separates every clique pair, and
    the base coloring fails only on the clique/stable pairs (x, s)
    where s is x's one separator neighbor, or x has none and s is not
    in S'.  Let u be the clique vertex with no separator neighbor (two
    such would not be separated) and A its stable neighbors.

    With u: if A is empty, u -> e2.  Else, if some clique vertex y
    misses all of A, u -> e2 and the first such y -> e3.  Else u keeps
    e1, A[0] -> e2 and A[1:] -> e3.  Giving u e2 puts e2 in every
    clique set and in no separator set, since u has no separator
    neighbor, which separates every clique/separator pair; each other
    clique vertex sees a separator color that no non-separator set
    holds, and y's e3 separates u from each a in A.  The last branch
    runs only when every clique vertex but u touches A, so |A| >= 2,
    since a lone a in A would see all of K.  There every clique vertex
    but u has a separator color and e2 or e3, while a separator
    vertex's set is its own color and e1, and u's set holds e1, e2 and
    e3 while each a in A has only e1 and its own color.

    Without u: x1, the first clique vertex with exactly one separator
    neighbor s1, gets e2, and the first clique vertex missing s1 (one
    exists, since s1 does not see all of K) gets e3.  Every clique set
    then holds e2 and e3; e2 on x1 reaches only s1 among the separator
    sets, and e3 on a vertex missing s1 separates (x1, s1).
    Non-separator stable sets hold no separator color, which every
    clique set does.  With no x1 the base coloring is already valid.
    """
    sep = split_separator(g, part)
    adj = g.adj
    sep_mask = mask_of(sep)
    e1, e2, e3 = len(sep) + 1, len(sep) + 2, len(sep) + 3
    colors = [e1] * g.n
    for i, v in enumerate(sorted(sep), start=1):
        colors[v] = i

    clique = sorted(part.clique)
    u = next((x for x in clique if not adj[x] & sep_mask), None)
    if u is not None:
        a_mask = adj[u] & mask_of(part.stable)
        y = next((x for x in clique if not adj[x] & a_mask), None)
        if y is not None:
            colors[u] = e2
            if a_mask:
                colors[y] = e3
        else:
            first, *rest = bits(a_mask)
            colors[first] = e2
            for v in rest:
                colors[v] = e3
        return colors
    x1 = next((x for x in clique if (adj[x] & sep_mask).bit_count() == 1), None)
    if x1 is not None:
        s1_mask = adj[x1] & sep_mask
        colors[x1] = e2
        colors[next(x for x in clique if not adj[x] & s1_mask)] = e3
    return colors


def split_rlid_coloring(g: Graph, part: SplitPartition) -> Coloring:
    """Color a connected split graph with at most omega + 2 colors,
    constructively.

    A non-maximal clique side is first repaired by migrating the stable
    vertex that sees all of it.  Twins, which then sit entirely inside
    the clique side, are handled by coloring the quotient and copying
    each class representative's color back; a twin-free graph gets the
    case table of _split_case_colors, which spends at most three colors
    beyond the separator's.  No search runs.  The result is verified,
    and a TheoremCounterexample is raised rather than return an invalid
    coloring quietly.
    """
    _validate_split(g, part, for_separator=False)
    part = _maximalize_split(g, part)
    if is_twin_free(g):
        colors = _split_case_colors(g, part)
    else:
        q, tp = quotient(g)
        new_of_old = {old: i for i, old in enumerate(tp.representatives)}
        q_part = SplitPartition(
            frozenset(new_of_old[v] for v in part.clique if v in new_of_old),
            frozenset(new_of_old[v] for v in part.stable if v in new_of_old),
        )
        q_colors = split_rlid_coloring(q, q_part).colors
        colors = [q_colors[new_of_old[tp.representative_map[v]]] for v in range(g.n)]
    candidate = Coloring(colors)
    if is_rlid(g, candidate):
        return candidate
    raise TheoremCounterexample(
        "split case table gave an invalid coloring: edges=%r" % (g.edges(),)
    )
