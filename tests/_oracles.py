"""Brute-force reference implementations used to freeze expected values.

Everything here works on (n, edge list) pairs with plain Python sets and
itertools, sharing no code with the package under test, except that
``reference_search`` borrows the budget exception,
``reference_full_palette`` its graph operations and isomorphism test,
and ``reference_quotient_three_coloring`` the components, the twin
quotient and the bipartite level coloring.
Deliberately slow; intended for n up to about 7.
"""

from itertools import combinations, product


def adjacency(n, edges):
    nbrs = {v: set() for v in range(n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def closed_neighborhoods(n, edges):
    nbrs = adjacency(n, edges)
    return {v: nbrs[v] | {v} for v in range(n)}


def color_set(closed, colors, v):
    return frozenset(colors[u] for u in closed[v])


def brute_is_proper(n, edges, colors):
    return all(colors[u] != colors[v] for u, v in edges)


def brute_is_rlid(n, edges, colors):
    closed = closed_neighborhoods(n, edges)
    for u, v in edges:
        if closed[u] == closed[v]:
            continue
        if color_set(closed, colors, u) == color_set(closed, colors, v):
            return False
    return True


def brute_is_lid(n, edges, colors):
    # proper, and every adjacent pair separated; twins can never be.
    if not brute_is_proper(n, edges, colors):
        return False
    closed = closed_neighborhoods(n, edges)
    return all(
        color_set(closed, colors, u) != color_set(closed, colors, v)
        for u, v in edges
    )


def brute_is_id(n, edges, colors):
    closed = closed_neighborhoods(n, edges)
    sets = [color_set(closed, colors, v) for v in range(n)]
    return all(sets[u] != sets[v] for u, v in combinations(range(n), 2))


def reference_violations(mode, n, edges, colors=None, code=None):
    """Every violation of a mode as ``(u, v, adjacent, kind, witness)``
    tuples, in the order the package's verifiers report them.

    Modes "proper", "rlid" and "lid" walk the edges in lexicographic
    order; "id" and "code" scan every vertex pair in
    ``combinations`` order.  id reports only its twin pairs when there
    are any; code reports its undominated vertices (u == v) first.
    Witnesses are the shared set: a color set, the one color of a
    monochromatic edge, the closed neighborhood of twins or the code
    trace.  The plain pair scan is the reference for the verifiers'
    grouping of equal keys.
    """
    closed = closed_neighborhoods(n, edges)
    edge_set = {frozenset(e) for e in edges}
    edge_list = sorted({tuple(sorted(e)) for e in edges})
    out = []
    if mode == "code":
        code = set(code)
        traces = [frozenset(closed[v] & code) for v in range(n)]
        out += [(v, v, False, "undominated", frozenset()) for v in range(n) if not traces[v]]
        out += [
            (u, v, frozenset((u, v)) in edge_set, "code-equal", traces[u])
            for u, v in combinations(range(n), 2)
            if traces[u] == traces[v]
        ]
        return out
    sets = [color_set(closed, colors, v) for v in range(n)]
    if mode == "id":
        twins = [
            (u, v, frozenset((u, v)) in edge_set, "twins", frozenset(closed[u]))
            for u, v in combinations(range(n), 2)
            if closed[u] == closed[v]
        ]
        return twins or [
            (u, v, frozenset((u, v)) in edge_set, "colorset", sets[u])
            for u, v in combinations(range(n), 2)
            if sets[u] == sets[v]
        ]
    for u, v in edge_list:
        if mode in ("proper", "lid") and colors[u] == colors[v]:
            out.append((u, v, True, "proper", frozenset((colors[u],))))
        if mode == "lid" and closed[u] == closed[v]:
            out.append((u, v, True, "twins", frozenset(closed[u])))
        elif mode in ("rlid", "lid") and sets[u] == sets[v] and closed[u] != closed[v]:
            out.append((u, v, True, "colorset", sets[u]))
    return out


def brute_chi(n, edges, predicate):
    """Smallest k admitting a coloring with predicate(n, edges, colors)."""
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for colors in product(range(1, k + 1), repeat=n):
            if predicate(n, edges, list(colors)):
                return k
    raise AssertionError("no coloring found with n colors")


def brute_is_id_code(n, edges, code):
    closed = closed_neighborhoods(n, edges)
    hits = [closed[v] & code for v in range(n)]
    if any(not h for h in hits):
        return False
    return all(hits[u] != hits[v] for u, v in combinations(range(n), 2))


def brute_gamma_id(n, edges):
    """Minimum identifying code size, or None when twins block it.

    Tries every vertex subset, smallest first; a subset is a code when
    the traces N[v] & code are nonempty and pairwise distinct.
    """
    closed = closed_neighborhoods(n, edges)
    if any(closed[u] == closed[v] for u, v in combinations(range(n), 2)):
        return None
    for size in range(1, n + 1):
        for chosen in combinations(range(n), size):
            code = set(chosen)
            traces = {frozenset(closed[v] & code) for v in range(n)}
            if len(traces) == n and frozenset() not in traces:
                return size
    return None


def brute_twin_free(n, edges):
    closed = closed_neighborhoods(n, edges)
    return all(closed[u] != closed[v] for u, v in combinations(range(n), 2))


def brute_connected(n, edges):
    if n <= 1:
        return True
    nbrs = adjacency(n, edges)
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in nbrs[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def brute_bipartite(n, edges):
    nbrs = adjacency(n, edges)
    side = {}
    for start in range(n):
        if start in side:
            continue
        side[start] = 0
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in nbrs[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    frontier.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def brute_distance_classes(n, edges, s):
    """The vertices at distance 0, 1, 2, ... from s, one sorted list per
    distance, from a dict of distances filled one level at a time."""
    nbrs = adjacency(n, edges)
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    classes = [[] for _ in range(max(dist.values()) + 1)]
    for v in sorted(dist):
        classes[dist[v]].append(v)
    return classes


def brute_bipartition(n, edges):
    """(side0, side1) with each component rooted at its minimum vertex
    and sides by distance parity, or None when an edge joins two
    vertices of one side (an odd cycle)."""
    side = {}
    for start in range(n):
        if start not in side:
            for d, cls in enumerate(brute_distance_classes(n, edges, start)):
                side.update((v, d % 2) for v in cls)
    if any(side[u] == side[v] for u, v in edges):
        return None
    return (
        frozenset(v for v in range(n) if side[v] == 0),
        frozenset(v for v in range(n) if side[v] == 1),
    )


def brute_degeneracy(n, edges):
    """Degeneracy and elimination order: repeatedly remove a vertex of
    minimum remaining degree, the smallest index on ties."""
    nbrs = adjacency(n, edges)
    alive = set(range(n))
    order = []
    k = 0
    while alive:
        v = min(alive, key=lambda x: (len(nbrs[x] & alive), x))
        k = max(k, len(nbrs[v] & alive))
        order.append(v)
        alive.remove(v)
    return k, order


def brute_max_clique(n, edges):
    if n == 0:
        return 0
    present = {frozenset(e) for e in edges}
    for size in range(n, 0, -1):
        for chosen in combinations(range(n), size):
            if all(frozenset(p) in present for p in combinations(chosen, 2)):
                return size
    return 1


def brute_forced_differences(n, edges, mode):
    """Vertex pairs that every valid coloring of the mode colors apart.

    A constrained pair u, v (none in proper mode, every pair in id mode,
    adjacent non-twins otherwise) with N[u] - N[v] = {a} and
    N[v] - N[u] = {b} forces c(a) != c(b); with N[u] - N[v] = {a} and
    N[v] inside N[u], it forces c(a) off every color on N[v].  Returns
    the set of forced pairs as frozensets.
    """
    closed = closed_neighborhoods(n, edges)
    if mode == "proper":
        pairs = []
    elif mode == "id":
        pairs = list(combinations(range(n), 2))
    else:
        pairs = [(u, v) for u, v in edges if closed[u] != closed[v]]
    out = set()
    for u, v in pairs:
        for x, y in ((u, v), (v, u)):
            only_x, only_y = closed[x] - closed[y], closed[y] - closed[x]
            if len(only_x) != 1:
                continue
            (a,) = only_x
            if len(only_y) == 1:
                out.add(frozenset((a, next(iter(only_y)))))
            elif not only_y:
                out.update(frozenset((a, w)) for w in closed[y])
    return out


def brute_quotient(n, edges):
    """The graph induced on the smallest vertex of each closed-neighborhood
    class, renumbered 0.. in increasing order: ``(order, edges)``."""
    closed = closed_neighborhoods(n, edges)
    reps = sorted({min(w for w in range(n) if closed[w] == closed[v]) for v in range(n)})
    index = {v: i for i, v in enumerate(reps)}
    return len(reps), [(index[u], index[v]) for u, v in edges if u in index and v in index]


def brute_split_partition(n, edges):
    """Clique side of a clique/stable split, or None when there is none.

    Every vertex subset is tried in mask order; the largest clique side
    wins, and the earliest mask breaks ties.
    """
    nbrs = adjacency(n, edges)
    best = None
    for mask in range(1 << n):
        side = {v for v in range(n) if mask >> v & 1}
        rest = set(range(n)) - side
        if all(side - {v} <= nbrs[v] for v in side) and all(
            not nbrs[v] & rest for v in rest
        ):
            if best is None or len(side) > len(best):
                best = side
    return None if best is None else frozenset(best)


def brute_is_clique_union(n, edges):
    """True iff every connected component is complete."""
    nbrs = adjacency(n, edges)
    closed = {v: nbrs[v] | {v} for v in range(n)}
    comp = {}
    for start in range(n):
        if start in comp:
            continue
        members = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in nbrs[v]:
                if w not in members:
                    members.add(w)
                    frontier.append(w)
        for v in members:
            comp[v] = frozenset(members)
    return all(closed[v] == comp[v] for v in range(n))


def all_labeled_graphs(n):
    """Yield every edge list over n labeled vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def reference_members(mask):
    """The set bit positions of a non-negative mask, read off its binary digits."""
    return tuple(i for i, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1")


def _mask_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_min_hitting_set(sets, n, floor, best, spend):
    """The identifying-code branch and bound in its first, plain form.

    Same contract and node order as ``rlid.solvers._min_hitting_set``:
    every node filters the raw unmet sets, then a separate pass restricts
    them to the allowed vertices and scores the cut.  Kept as the parity
    reference for the fused search, which must return the same mask
    after the same number of ``spend`` calls.
    """
    best_size = best.bit_count()

    def evaluate(chosen, excluded, unmet):
        allowed = ~excluded
        pick, fewest, used, packing = 0, n + 1, 0, 0
        for s in unmet:
            a = s & allowed
            k = a.bit_count()
            if k < fewest:
                if not k:
                    return None
                pick, fewest = a, k
            if not a & used:
                used |= a
                packing += 1
        if max(chosen.bit_count() + packing, floor) >= best_size:
            return None
        return list(_mask_bits(pick))

    spend()
    root = evaluate(0, 0, sets)
    stack = [] if root is None else [[0, 0, sets, root, 0]]
    while stack:
        frame = stack[-1]
        chosen, excluded, unmet, cands, i = frame
        if i == len(cands):
            stack.pop()
            continue
        frame[4] = i + 1
        spend()
        bit = 1 << cands[i]
        child = chosen | bit
        rest = [s for s in unmet if not s & bit]
        if not rest:
            if child.bit_count() < best_size:
                best, best_size = child, child.bit_count()
            continue
        for w in cands[:i]:
            excluded |= 1 << w
        nxt = evaluate(child, excluded, rest)
        if nxt is not None:
            stack.append([child, excluded, rest, nxt, 0])
    return best


def reference_greedy_code(containing, unmet):
    """The greedy identifying code in its first, plain form: every pick
    runs ``max`` over all vertices, so the smallest index wins ties.

    Parity reference for the lazy heap in ``rlid.solvers._greedy_code``.
    """
    code = 0
    while unmet:
        v = max(range(len(containing)), key=lambda w: (containing[w] & unmet).bit_count())
        code |= 1 << v
        unmet &= ~containing[v]
    return code


def reference_plan(g, mode):
    """The k-decider's search plan, built from a list of constrained pairs.

    Frozen copy of the pair-list form of ``rlid.solvers._SearchPlan``'s
    build: it lists the pairs first, then walks each pair's
    ``N[u] | N[v]`` once, testing each bit against two masks.  The
    tie-break rank comes from its own insertion sort by degree (stable,
    so ties keep index order), and both greedy cliques from loops of
    its own.  ``mode`` is a search mode ("rlid", "lid", "id",
    "proper"); the twin-free precondition is the caller's.  Returns
    ``(n, order, earlier, checks, clique, slack, clique_before)``, each
    check being the pair ``(u, v)`` with its ``(common, only_u,
    only_v)`` triple; the plan holds order, earlier, the checks' pairs
    and clique_before (as a flag) in its step records.
    """
    n = g.n
    adj, closed = g.adj, g.closed

    if mode == "proper":
        pairs = ()
    elif mode == "id":
        pairs = combinations(range(n), 2)
    else:
        # the edges u < v whose closed neighborhoods differ
        pairs = []
        for u in range(n):
            cu = closed[u]
            rest = adj[u] >> (u + 1)
            while rest:
                low = rest & -rest
                v = u + low.bit_length()
                if closed[v] != cu:
                    pairs.append((u, v))
                rest ^= low
    left = []          # per pair: its members not colored yet
    layout = []        # per pair: its check triple
    member_of = [[] for _ in range(n)]
    forced = [0] * n   # D's adjacency masks
    triangle = False
    for p, (u, v) in enumerate(pairs):
        cu, cv = closed[u], closed[v]
        both = cu & cv
        ou, ov = cu ^ both, cv ^ both
        rest = cu | cv
        left.append(rest)
        common, lu, lv = [], [], []
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            member_of[w].append(p)
            if low & both:
                common.append(w)
            elif low & ou:
                lu.append(w)
            else:
                lv.append(w)
            rest ^= low
        layout.append(((u, v), (tuple(common), tuple(lu), tuple(lv))))
        if not (ou & (ou - 1) or ov & (ov - 1)):
            if ou and ov:
                forced[ou.bit_length() - 1] |= ov
                forced[ov.bit_length() - 1] |= ou
            else:
                # one side is a single vertex a, the other N[] is all common
                a = (ou | ov).bit_length() - 1
                forced[a] |= both
                for w in common:
                    forced[w] |= ou | ov
        if not triangle and len(common) > 2 and adj[u] >> v & 1:
            triangle = True

    # rank: the vertices by degree, ties by index, sorted one swap at a time
    deg = [a.bit_count() for a in adj]
    ranked = list(range(n))
    for i in range(1, n):
        j = i
        while j and deg[ranked[j - 1]] > deg[ranked[j]]:
            ranked[j - 1], ranked[j] = ranked[j], ranked[j - 1]
            j -= 1
    score = [0] * n
    for rank, v in enumerate(ranked):
        score[v] = rank
    clique = ()
    if triangle:
        # a greedy clique over the smallest vertex of each twin class:
        # the candidate with the most neighbors among the candidates
        # (higher rank on ties), then only its neighbors, until none is left
        nbrs = adjacency(n, g.edges())
        cand, seen = set(), set()
        for v in range(n):
            if closed[v] not in seen:
                seen.add(closed[v])
                cand.add(v)
        found = []
        while cand:
            best = max(cand, key=lambda w: (len(nbrs[w] & cand), score[w]))
            found.append(best)
            cand &= nbrs[best]
        if len(found) >= 3:
            clique = tuple(found)
    slack = (len(clique) - 1).bit_length() if clique else 0

    seen_step = n + 1
    closes_step = seen_step * seen_step
    forced_step = closes_step * (len(layout) + 1)
    if any(f & (f - 1) for f in forced):
        # a greedy clique of D, led by the vertex with the most
        # D-neighbors among the candidates (higher score on ties)
        lead = []
        cand = (1 << n) - 1
        while cand:
            best = best_key = -1
            rest = cand
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                key = (forced[w] & cand).bit_count() * seen_step + score[w]
                if key > best_key:
                    best, best_key = w, key
                rest ^= low
            lead.append(best)
            cand &= forced[best]
        if len(lead) >= 3:
            lead_step = forced_step * n
            for v in lead:
                score[v] += lead_step
    # proper mode has no pairs, so its forced masks are all zero
    differ = [a | d for a, d in zip(adj, forced)] if mode in ("proper", "lid") else forced
    uncolored = set(range(n))
    colored = 0
    order, earlier, checks = [], [], []
    for _ in range(n):
        v = max(uncolored, key=score.__getitem__)
        uncolored.remove(v)
        order.append(v)
        must = differ[v] & colored
        earlier.append(tuple(_mask_bits(must)) if must else ())
        colored |= 1 << v
        rest = adj[v] & ~colored
        while rest:
            low = rest & -rest
            score[low.bit_length() - 1] += seen_step
            rest ^= low
        rest = forced[v] & ~colored
        while rest:
            low = rest & -rest
            score[low.bit_length() - 1] += forced_step
            rest ^= low
        done = []
        for p in member_of[v]:
            rest = left[p] ^ (1 << v)
            left[p] = rest
            if not rest:
                done.append(layout[p])
            elif not rest & (rest - 1):
                score[rest.bit_length() - 1] += closes_step
        checks.append(tuple(done))
    before = [None] * n
    if clique:
        members = []
        for i, v in enumerate(order):
            if v in clique:
                before[i] = tuple(members)
                members.append(v)
    return n, tuple(order), tuple(earlier), tuple(checks), clique, slack, tuple(before)


def reference_search(plan, k, budget):
    """The k-decider's search on ``reference_plan``'s check triples.

    Frozen copy of the triple-check form of ``rlid.solvers._search``:
    each pair check ORs the colors of its common part once and then
    those of each difference, and compares the two sets.  ``plan`` is
    ``reference_plan``'s tuple.  Returns the color list or None, counts
    one node per color trial on from ``budget.nodes`` and raises
    BudgetExceeded at node ``max_nodes + 1``, as the package's search.
    """
    from rlid.graph import BudgetExceeded

    n, order, earlier, checks, clique, slack, before = plan
    steps = [
        (v, e, tuple(triple for _, triple in c), b is not None)
        for v, e, c, b in zip(order, earlier, checks, before)
    ]
    if n == 0:
        return []
    limit = k - slack
    if clique and limit < 1:
        return None
    col = [0] * n
    nodes, cap = budget.nodes, budget.max_nodes
    trial = [1] * n
    used = [0] * n
    on_clique = [0] * n
    i = 0
    while True:
        v, enbrs, pair_checks, in_clique = steps[i]
        top = used[i] + 1
        if top > k:
            top = k
        allowed = -1
        if in_clique and on_clique[i].bit_count() >= limit:
            allowed = on_clique[i]
        c = trial[i]
        while c <= top:
            nodes += 1
            if nodes > cap:
                budget.nodes = nodes
                raise BudgetExceeded("node budget %d exceeded" % cap, nodes)
            if allowed >> c & 1:
                for w in enbrs:
                    if col[w] == c:
                        break
                else:
                    col[v] = c
                    for common, lu, lv in pair_checks:
                        m = 0
                        for w in common:
                            m |= 1 << col[w]
                        mu = m
                        for w in lu:
                            mu |= 1 << col[w]
                        mv = m
                        for w in lv:
                            mv |= 1 << col[w]
                        if mu == mv:
                            break
                    else:
                        break
            c += 1
        if c > top:
            if i == 0:
                budget.nodes = nodes
                return None
            i -= 1
        elif i + 1 == n:
            budget.nodes = nodes
            return col
        else:
            trial[i] = c + 1
            i += 1
            trial[i] = 1
            used[i] = used[i - 1] if c <= used[i - 1] else c
            on_clique[i] = on_clique[i - 1] | 1 << c if in_clique else on_clique[i - 1]


def reference_full_palette(g):
    """The full-palette characterization by isomorphism: each join
    factor is matched against ``power_path(k)``.

    Frozen copy of the isomorphism form of
    ``rlid.bounds.characterize_full_palette``, whose connectivity and
    twin-freeness checks are the caller's.
    """
    from rlid.families import power_path
    from rlid.graph import is_isomorphic

    if g.n == 1:
        return True
    full = (1 << g.n) - 1
    universal = [v for v in range(g.n) if g.closed[v] == full]
    if not universal:
        return False
    h, _ = g.induced([v for v in range(g.n) if v != universal[0]])
    for comp in h.complement().components():
        factor, _ = h.induced(comp)
        size = factor.n
        if size % 2 or size == 0:
            return False
        k = size // 2
        if k == 1:
            if factor.edge_count != 0:
                return False
        elif not is_isomorphic(factor, power_path(k)):
            return False
    return True


def reference_quotient_three_coloring(g):
    """The colors of the level coloring of each component's twin
    quotient, each twin class colored like its representative and a
    component whose quotient is one vertex colored 1, or None when some
    component's quotient has no level coloring:
    ``rlid.coloring.quotient_three_coloring`` built from ``components``,
    ``induced``, ``quotient`` and ``bipartite_three_coloring``, whose
    GraphError reads as None."""
    from rlid.coloring import bipartite_three_coloring
    from rlid.graph import GraphError, quotient

    colors = [1] * g.n
    for comp in g.components():
        q, part = quotient(g.induced(comp)[0])
        if q.n == 1:
            continue
        try:
            found = bipartite_three_coloring(q)
        except GraphError:
            return None
        for c, cls in zip(found[0].colors, part.classes):
            for v in cls:
                colors[comp[v]] = c
    return tuple(colors)
