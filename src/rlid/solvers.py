"""Exact decision and optimization: backtracking search, exhaustive
enumeration, and seeded random generators.

The k-decision engine colors vertices in a fixed order built so that
pair checks fire early: each step takes the vertex that completes the
most constrained pairs' ``N[u] | N[v]``, then the one with the most
colored neighbors, then the one latest in the degeneracy elimination
order (a static, pair-check version of DSATUR's saturation rule).  It
breaks color symmetry by allowing at most one brand-new color per step
and prunes as soon as both closed neighborhoods of a constrained pair
are fully colored with equal color sets; each check ORs the colors of
``N[u] & N[v]`` once and then only the two differences.  Backtracking
runs on an explicit stack, so path-like inputs of any length search
without recursion.  Search is deterministic: fixed vertex order,
ascending color trials.

In rlid, lid and id modes two more cuts apply, both proven necessary
for every valid coloring:

- Forced differences (the general form of the gadget's projection
  lemma).  If a constrained pair u, v has N[u] - N[v] = {a} and
  N[v] - N[u] = {b}, the two color sets are C(N[u] & N[v]) plus c(a)
  and plus c(b), so they differ only if c(a) != c(b).  If instead
  N[u] - N[v] = {a} and N[v] lies inside N[u], the sets are C(N[v])
  plus c(a) and C(N[v]), so c(a) must differ from every color on N[v].
  These pairs form a graph D that every valid coloring colors
  properly; on a gadget g*(G), D contains G.  The search treats D's
  edges like graph edges of a proper coloring, and colors next the
  vertex with the most colored D-neighbors.
- Clique color count (the log-omega bound on partial colorings).  Take
  a clique K of pairwise non-twins.  Each member's closed neighborhood
  contains K, so its color set contains C(K), the colors used on K;
  the |K| members are pairwise constrained, so these |K| sets differ.
  With k colors there are only 2^(k - |C(K)|) supersets of C(K), so
  |C(K)| <= k - ceil(log2 |K|).  C(K) only grows as the search colors
  more of K, so a partial coloring that breaks the bound has no valid
  completion.  The plan uses a maximum such clique when it has at
  least three members.

Both cuts only compare or count colors, so renaming colors keeps them;
the at-most-one-new-color rule and the values stay exact.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .coloring import Coloring
from .families import SplitPartition, _maximalize_split
from .graph import (
    BudgetExceeded,
    Graph,
    GraphError,
    bits,
    degeneracy,
    graph_from_edge_mask,
    is_isomorphic,
    is_twin_free,
    max_clique,
    twin_partition,
)

DEFAULT_NODE_BUDGET = 10_000_000
PLAN_CLIQUE_NODE_BUDGET = 10_000


@dataclass(frozen=True)
class Parameter:
    """One coloring parameter: its search mode, precondition and checkers.

    ``name`` is the canonical name results report, ``mode`` the
    _SearchPlan mode, and ``twin_free`` says the search rejects inputs
    with twins.  ``decider`` and ``verifier`` name the functions of
    this module and of ``rlid.coloring``; callers look them up by name
    at call time, so a wrapper installed on a module attribute sees
    every call.
    """

    name: str
    mode: str
    twin_free: bool
    decider: str
    verifier: str


PARAMETERS = {
    "rlid": Parameter("rlid", "rlid", False, "decide_k_rlid", "verify_rlid"),
    "lid": Parameter("lid", "lid", True, "decide_k_lid", "verify_lid"),
    "id": Parameter("id", "id", True, "decide_k_id", "verify_id"),
    "chromatic": Parameter("chromatic", "proper", False, "decide_k_proper", "verify_proper"),
}
PARAMETERS["proper"] = PARAMETERS["chromatic"]


class Budget:
    """Mutable search-node counter; node ``max_nodes + 1`` raises BudgetExceeded.

    Only nodes count, never the clock, so whether a search stops
    depends on the input and the limit alone, not on the machine.
    """

    __slots__ = ("max_nodes", "nodes")

    def __init__(self, max_nodes=None):
        self.max_nodes = DEFAULT_NODE_BUDGET if max_nodes is None else max_nodes
        self.nodes = 0

    def spend(self):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceeded("node budget %d exceeded" % self.max_nodes, self.nodes)


@dataclass(frozen=True)
class SolveStats:
    """What a solve cost: ``nodes`` in all, ``per_k`` as one ``(k, nodes)``
    row per k searched (chi_exact only), ``clique`` the size of the
    clique the color-count cut used (0 when none), and ``wall_ms``.
    Only ``wall_ms`` depends on the machine."""

    nodes: int
    wall_ms: float
    per_k: tuple = ()
    clique: int = 0


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact computation.

    ``status`` is "exact" or "budget-exceeded"; in the latter case
    value and witness are None rather than a guess.
    """

    parameter: str
    value: int | None
    witness: object
    status: str
    stats: SolveStats


# -- the generic k-coloring decision engine -----------------------------


def _require_twin_free(g: Graph):
    """The one twin-free precondition of lid, id and identifying codes."""
    for cls in twin_partition(g).classes:
        if len(cls) >= 2:
            raise GraphError(
                "vertices %d and %d are twins; lid, id and identifying codes "
                "need a twin-free graph" % cls[:2]
            )


class _SearchPlan:
    """Per-(graph, parameter) precomputation shared across k values.

    ``order`` is the coloring order, built in one greedy pass: each
    step colors the uncolored vertex with the highest score
    ``forced * F + closes * B**2 + seen * B + rank`` (``B = n + 1``,
    ``F`` above any ``closes * B**2``), where ``forced`` counts its
    colored neighbors in the forced-difference graph D (below),
    ``closes`` the constrained pairs whose ``N[u] | N[v]`` that vertex
    would complete, ``seen`` its colored neighbors, and ``rank`` its
    position in the degeneracy elimination order (later is higher), so
    ties fall back to reverse degeneracy order.

    ``earlier[i]`` lists the vertices colored before ``order[i]`` that
    must get another color: its D-neighbors, and in proper and lid
    modes its graph neighbors too.  ``checks[i]`` holds one
    ``(common, only_u, only_v)`` triple of vertex tuples per pair whose
    last member is ``order[i]``: ``N[u] & N[v]``, ``N[u] - N[v]`` and
    ``N[v] - N[u]``.

    Two cuts hold in every valid coloring, and both only count or
    compare colors, so renaming colors keeps them:

    - Forced differences.  A check with ``only_u = {a}`` and
      ``only_v = {b}`` compares C(common) + c(a) with C(common) + c(b),
      so c(a) != c(b).  One with ``only_u = {a}`` and ``only_v`` empty
      compares C(N[v]) + c(a) with C(N[v]), so c(a) differs from every
      color on N[v].  D holds these pairs.
    - Clique color count.  ``clique`` is a maximum clique K of
      pairwise non-twins (over twin-class representatives), kept when
      |K| >= 3.  Every member's N[] contains K, so its color set
      contains C(K), the colors on K; the |K| sets differ, and k colors
      offer 2^(k - |C(K)|) supersets of C(K).  So |C(K)| <= k - ``slack``
      with ``slack = ceil(log2 |K|)``, and C(K) only grows as the search
      colors more of K.  ``clique_before[i]`` lists the members colored
      before ``order[i]`` when it is a member, else None.  The clique
      search runs only when an adjacent constrained pair has a common
      neighbor (a triangle of non-twins needs one), and gives up
      without a cut past ``PLAN_CLIQUE_NODE_BUDGET`` nodes.
    """

    __slots__ = ("g", "mode", "n", "order", "earlier", "checks", "clique", "slack", "clique_before")

    def __init__(self, g: Graph, spec: Parameter):
        if spec.twin_free:
            _require_twin_free(g)
        mode = spec.mode
        n = g.n
        adj, closed = g.adj, g.closed
        self.g = g
        self.mode = mode
        self.n = n

        if mode == "proper":
            pairs = ()
        elif mode == "id":
            pairs = itertools.combinations(range(n), 2)
        else:
            pairs = [(u, v) for u, v in g.edges() if closed[u] != closed[v]]
        left = []          # per pair: its members not colored yet
        layout = []        # per pair: its check triple
        member_of = [[] for _ in range(n)]
        forced = [0] * n   # D's adjacency masks
        triangle = False
        for p, (u, v) in enumerate(pairs):
            cu, cv = closed[u], closed[v]
            both = cu & cv
            ou, ov = cu ^ both, cv ^ both
            left.append(cu | cv)
            check = (tuple(bits(both)), tuple(bits(ou)), tuple(bits(ov)))
            layout.append(check)
            for part in check:
                for w in part:
                    member_of[w].append(p)
            if not (ou & (ou - 1) or ov & (ov - 1)):
                if ou and ov:
                    forced[ou.bit_length() - 1] |= ov
                    forced[ov.bit_length() - 1] |= ou
                else:
                    # one side is a single vertex a, the other N[] is all common
                    a = (ou | ov).bit_length() - 1
                    forced[a] |= both
                    for w in check[0]:
                        forced[w] |= ou | ov
            if not triangle and len(check[0]) > 2 and adj[u] >> v & 1:
                triangle = True

        self.clique = ()
        if triangle:
            # the smallest vertex of each twin class
            reps, seen = 0, set()
            for v in range(n):
                if closed[v] not in seen:
                    seen.add(closed[v])
                    reps |= 1 << v
            try:
                found = max_clique(g, Budget(PLAN_CLIQUE_NODE_BUDGET), reps)
            except BudgetExceeded:
                found = ()
            if len(found) >= 3:
                self.clique = found
        self.slack = (len(self.clique) - 1).bit_length() if self.clique else 0

        _, elim = degeneracy(g)
        score = [0] * n
        for rank, v in enumerate(elim):
            score[v] = rank
        seen_step = n + 1
        closes_step = seen_step * seen_step
        forced_step = closes_step * (len(layout) + 1)
        need_proper = mode in ("proper", "lid")
        if not need_proper:
            differ = forced
        elif layout:
            differ = [a | d for a, d in zip(adj, forced)]
        else:
            differ = adj
        uncolored = set(range(n))
        colored = 0
        order, earlier, checks = [], [], []
        for _ in range(n):
            v = max(uncolored, key=score.__getitem__)
            uncolored.remove(v)
            order.append(v)
            must = differ[v] & colored
            earlier.append(tuple(bits(must)) if must else ())
            colored |= 1 << v
            for w in bits(adj[v] & ~colored):
                score[w] += seen_step
            pushed = forced[v] & ~colored
            if pushed:
                for w in bits(pushed):
                    score[w] += forced_step
            done = []
            for p in member_of[v]:
                rest = left[p] ^ (1 << v)
                left[p] = rest
                if not rest:
                    done.append(layout[p])
                elif not rest & (rest - 1):
                    score[rest.bit_length() - 1] += closes_step
            checks.append(tuple(done))
        self.order = tuple(order)
        self.earlier = tuple(earlier)
        self.checks = tuple(checks)
        before = [None] * n
        if self.clique:
            members = []
            for i, v in enumerate(order):
                if v in self.clique:
                    before[i] = tuple(members)
                    members.append(v)
        self.clique_before = tuple(before)


def _search(plan: _SearchPlan, k: int, budget: Budget):
    """Find a valid assignment with at most k colors, or None.

    Backtracking with an explicit stack, so the depth is not bounded
    by the interpreter's recursion limit: step i colors ``order[i]``,
    ``trial[i]`` is the next color it tries and ``used[i]`` the
    number of colors in use before it.  A color is cut when an earlier
    vertex of ``earlier[i]`` has it, when it would put more than
    ``k - slack`` colors on the plan's clique, or when a pair check it
    completes finds equal color sets.
    """
    n = plan.n
    if n == 0:
        return []
    limit = k - plan.slack
    if plan.clique and limit < 1:
        return None
    col = [0] * n
    order = plan.order
    earlier = plan.earlier
    checks = plan.checks
    clique_before = plan.clique_before
    spend = budget.spend
    trial = [1] * n
    used = [0] * n
    i = 0
    while True:
        v = order[i]
        enbrs = earlier[i]
        pair_checks = checks[i]
        top = used[i] + 1
        if top > k:
            top = k
        # colors the clique count allows: all (-1), or only those
        # already on the clique once it carries ``limit`` of them
        allowed = -1
        members = clique_before[i]
        if members is not None:
            on_clique = 0
            for w in members:
                on_clique |= 1 << col[w]
            if on_clique.bit_count() >= limit:
                allowed = on_clique
        c = trial[i]
        while c <= top:
            spend()
            if allowed >> c & 1:
                for w in enbrs:
                    if col[w] == c:
                        break
                else:  # no earlier vertex that must differ has c
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
                    else:  # every check passed: v keeps c
                        break
            c += 1
        if c > top:
            # no color fits order[i]: back up one step
            if i == 0:
                return None
            i -= 1
        elif i + 1 == n:
            return col
        else:
            trial[i] = c + 1
            i += 1
            trial[i] = 1
            used[i] = used[i - 1] if c <= used[i - 1] else c


def _decide(g: Graph, k: int, name: str, budget) -> Coloring | None:
    if k < 1:
        raise GraphError("color count must be at least 1, got %r" % (k,))
    if budget is None:
        budget = Budget()
    found = _search(_SearchPlan(g, PARAMETERS[name]), k, budget)
    return None if found is None else Coloring(found)


def decide_k_rlid(g: Graph, k: int, budget=None) -> Coloring | None:
    """Witness coloring with at most k colors, or None when none exists.

    Budget exhaustion raises BudgetExceeded; it never masquerades as
    "no coloring".
    """
    return _decide(g, k, "rlid", budget)


def decide_k_lid(g: Graph, k: int, budget=None) -> Coloring | None:
    """Like decide_k_rlid but proper and with no twin exemption.

    Raises GraphError when the graph has twins (no lid coloring can
    exist, for any k).
    """
    return _decide(g, k, "lid", budget)


def decide_k_id(g: Graph, k: int, budget=None) -> Coloring | None:
    """Distinct neighborhood color sets over all pairs; twin-free input."""
    return _decide(g, k, "id", budget)


def decide_k_proper(g: Graph, k: int, budget=None) -> Coloring | None:
    """Ordinary proper k-colorability, same engine and determinism."""
    return _decide(g, k, "chromatic", budget)


def chi_exact(g: Graph, parameter: str = "rlid", budget=None, *, search_two: bool = False) -> SolveResult:
    """Minimum palette size for the requested parameter.

    Iterative deepening over k.  For rlid the value 2 is impossible
    (one color forces clique components, and the next feasible value
    is 3), so k = 2 is skipped after k = 1 fails; pass
    ``search_two=True`` to search it anyway, e.g. when auditing that
    very law.
    """
    spec = PARAMETERS.get(parameter)
    if spec is None:
        raise GraphError(
            "unknown parameter %r (expected one of %s)" % (parameter, ", ".join(PARAMETERS))
        )
    parameter = spec.name
    if budget is None:
        budget = Budget()
    start = time.perf_counter()
    if g.n == 0:
        stats = SolveStats(0, 0.0)
        return SolveResult(parameter, 0, Coloring(()), "exact", stats)
    plan = _SearchPlan(g, spec)
    ks = list(range(1, g.n + 1))
    if parameter == "rlid" and not search_two and g.n >= 2:
        ks.remove(2)
    per_k = []

    def stats():
        wall_ms = (time.perf_counter() - start) * 1000
        return SolveStats(budget.nodes, wall_ms, tuple(per_k), len(plan.clique))

    for k in ks:
        before = budget.nodes
        try:
            found = _search(plan, k, budget)
        except BudgetExceeded:
            per_k.append((k, budget.nodes - before))
            return SolveResult(parameter, None, None, "budget-exceeded", stats())
        per_k.append((k, budget.nodes - before))
        if found is not None:
            return SolveResult(parameter, k, Coloring(found), "exact", stats())
    raise AssertionError("deepening ran out at k = n; rainbow fallback should exist")


# -- minimum identifying code -------------------------------------------


def _code_constraints(g: Graph, spend):
    """The vertex sets an identifying code must meet.

    A set C identifies G exactly when it meets every N[v] and every
    N[u] ^ N[v].  Only pairs at distance <= 2 get a set of their own:
    farther pairs have disjoint closed neighborhoods, so their
    N[u] ^ N[v] contains N[u].  Building each pair's set calls
    ``spend`` once.  A set that contains another one is dropped.

    Returns ``(sets, containing, live)``: the distinct sets, smallest
    first; ``containing[w]``, the mask of indices i with w in
    ``sets[i]``; and ``live``, the mask of the indices not dropped.
    """
    n = g.n
    closed = g.closed
    found = set(closed)
    for u in range(n):
        near = 0
        for w in bits(closed[u]):
            near |= closed[w]
        for v in bits(near & ~((2 << u) - 1)):
            spend()
            found.add(closed[u] ^ closed[v])
    sets = sorted(found, key=lambda m: (m.bit_count(), m))
    # containing[w]: bit i set when sets[i] contains w.  A strict
    # superset of sets[i] sorts after it, and the supersets of a
    # dropped set were dropped with the set it contains.
    width = (len(sets) + 7) >> 3
    rows = [bytearray(width) for _ in range(n)]
    for i, c in enumerate(sets):
        byte, bit = i >> 3, 1 << (i & 7)
        for w in bits(c):
            rows[w][byte] |= bit
    containing = [int.from_bytes(row, "little") for row in rows]
    dropped = 0
    for i, c in enumerate(sets):
        own = 1 << i
        if dropped & own:
            continue
        over = -1
        for w in bits(c):
            over &= containing[w]
            if over == own:
                break
        dropped |= over ^ own
    return sets, containing, ((1 << len(sets)) - 1) & ~dropped


def _greedy_code(containing: list, unmet: int) -> int:
    """Add the vertex meeting the most unmet sets until none is left;
    the smallest index wins ties."""
    code = 0
    while unmet:
        v = max(range(len(containing)), key=lambda w: (containing[w] & unmet).bit_count())
        code |= 1 << v
        unmet &= ~containing[v]
    return code


def _min_hitting_set(sets: list, n: int, floor: int, best: int, spend) -> int:
    """A smallest vertex mask meeting every mask in ``sets``, given a
    hitting set ``best`` to beat.

    Depth-first branch and bound on an explicit stack branches on the
    unmet set with the fewest allowed vertices; its i-th child takes
    that set's i-th vertex and bars the ones before it.  A node is cut
    when ``max(size + packing, floor) >= best``, where packing counts a
    greedy choice of unmet sets pairwise disjoint on allowed vertices
    (each needs its own vertex).  Every node evaluated calls ``spend``
    once.  Candidates are tried in index order and the incumbent only
    moves on a strict improvement, so the answer is deterministic.
    """
    best_size = best.bit_count()

    def evaluate(chosen, excluded, unmet):
        # the allowed vertices of the tightest unmet set, or None to cut
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
        return list(bits(pick))

    # explicit stack of [chosen, excluded, unmet, candidates, next index]
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


def gamma_id_exact(g: Graph, budget=None) -> SolveResult:
    """Minimum identifying code size with a witness vertex set.

    An exact minimum hitting set of the code's constraints (see
    ``_code_constraints`` and ``_min_hitting_set``), starting from a
    greedy code and cut below by ceil(log2(n+1)): n nonempty traces
    must differ.  The budget counts one node per pair constraint built
    and one per search node.  The search order is fixed, so the
    witness is deterministic.
    """
    _require_twin_free(g)
    if budget is None:
        budget = Budget()
    start = time.perf_counter()
    n = g.n
    if n == 0:
        return SolveResult("gamma-id", 0, frozenset(), "exact", SolveStats(0, 0.0))
    try:
        sets, containing, live = _code_constraints(g, budget.spend)
        kept = [sets[i] for i in bits(live)]
        greedy = _greedy_code(containing, live)
        code_mask = _min_hitting_set(kept, n, n.bit_length(), greedy, budget.spend)
    except BudgetExceeded:
        stats = SolveStats(budget.nodes, (time.perf_counter() - start) * 1000)
        return SolveResult("gamma-id", None, None, "budget-exceeded", stats)
    # an O(n) check of the witness; is_identifying_code costs O(n^2)
    traces = {g.closed[v] & code_mask for v in range(n)}
    if len(traces) != n or 0 in traces:
        raise AssertionError("hitting set %r is not an identifying code" % (code_mask,))
    stats = SolveStats(budget.nodes, (time.perf_counter() - start) * 1000)
    witness = frozenset(bits(code_mask))
    return SolveResult("gamma-id", len(witness), witness, "exact", stats)


# -- exhaustive enumeration ---------------------------------------------


def enumerate_graphs(order: int, filter=None, *, up_to_iso: bool = False):
    """Stream all labeled graphs of the given order, smallest mask first.

    ``filter`` is an optional Graph -> bool predicate applied before
    yielding.  With ``up_to_iso`` only the first representative of each
    isomorphism class (among filtered graphs) is produced; this is a
    convenience for reporting, the full labeled stream is the primary
    contract.  Order is capped at 7.
    """
    if not 0 <= order <= 7:
        raise GraphError("exhaustive enumeration supports order 0..7, got %r" % (order,))
    m = order * (order - 1) // 2
    seen_buckets = {}
    for mask in range(1 << m):
        g = graph_from_edge_mask(order, mask)
        if filter is not None and not filter(g):
            continue
        if up_to_iso:
            degs = tuple(sorted(map(int.bit_count, g.adj)))
            nbr_degs = tuple(
                sorted(tuple(sorted(g.degree(w) for w in bits(g.adj[v]))) for v in range(order))
            )
            key = (degs, nbr_degs)
            reps = seen_buckets.setdefault(key, [])
            if any(is_isomorphic(g, r) for r in reps):
                continue
            reps.append(g)
        yield g


# -- seeded random generators -------------------------------------------


def random_split_graph(seed, clique_size: int, stable_size: int, edge_prob, *, twin_free: bool = False):
    """Deterministic random split graph, returned with its partition.

    Clique vertices are 0..clique_size-1, stable vertices follow.
    Each clique-stable pair is wired with probability ``edge_prob``;
    stable vertices left isolated are rewired to one uniform clique
    vertex so the result is connected.  With ``twin_free`` the draw is
    rejected and resampled (same generator stream) until no twins
    remain.
    """
    if clique_size < 1 or stable_size < 1:
        raise GraphError("both sides need at least one vertex")
    if not 0 <= float(edge_prob) <= 1:
        raise GraphError("edge probability %r outside [0, 1]" % (edge_prob,))
    rng = random.Random(seed)
    a, b = clique_size, stable_size
    p = float(edge_prob)
    for _ in range(10000):
        adj = [0] * (a + b)
        for u in range(a):
            for v in range(u + 1, a):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        for s in range(a, a + b):
            for x in range(a):
                if rng.random() < p:
                    adj[s] |= 1 << x
                    adj[x] |= 1 << s
            if not adj[s] and a:
                x = rng.randrange(a)
                adj[s] |= 1 << x
                adj[x] |= 1 << s
        g = Graph.from_adj_masks(a + b, adj)
        if twin_free and not is_twin_free(g):
            continue
        # the separator needs a maximal clique side
        part = SplitPartition(frozenset(range(a)), frozenset(range(a, a + b)))
        return g, _maximalize_split(g, part)
    raise GraphError(
        "no twin-free draw in 10000 attempts for (%r, %d, %d, %r)"
        % (seed, clique_size, stable_size, edge_prob)
    )
