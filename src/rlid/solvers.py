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
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .coloring import Coloring
from .graph import (
    BudgetExceeded,
    Graph,
    GraphError,
    bits,
    degeneracy,
    graph_from_edge_mask,
    is_isomorphic,
    is_twin_free,
    mask_of,
    twin_partition,
)

DEFAULT_NODE_BUDGET = 10_000_000


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
    nodes: int
    wall_ms: float


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
    ``closes * B**2 + seen * B + rank`` (``B = n + 1``), where
    ``closes`` counts the constrained pairs whose ``N[u] | N[v]`` that
    vertex would complete, ``seen`` its colored neighbors, and ``rank``
    its position in the degeneracy elimination order (later is
    higher), so ties fall back to reverse degeneracy order.

    ``earlier[i]`` lists the neighbors of ``order[i]`` colored before
    it (proper and lid modes only).  ``checks[i]`` holds one
    ``(common, only_u, only_v)`` triple of vertex tuples per pair whose
    last member is ``order[i]``: ``N[u] & N[v]``, ``N[u] - N[v]`` and
    ``N[v] - N[u]``.
    """

    __slots__ = ("g", "mode", "n", "order", "earlier", "checks")

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
        for p, (u, v) in enumerate(pairs):
            cu, cv = closed[u], closed[v]
            left.append(cu | cv)
            check = (tuple(bits(cu & cv)), tuple(bits(cu & ~cv)), tuple(bits(cv & ~cu)))
            layout.append(check)
            for part in check:
                for w in part:
                    member_of[w].append(p)

        _, elim = degeneracy(g)
        score = [0] * n
        for rank, v in enumerate(elim):
            score[v] = rank
        seen_step = n + 1
        closes_step = seen_step * seen_step
        need_proper = mode in ("proper", "lid")
        uncolored = set(range(n))
        colored = 0
        order, earlier, checks = [], [], []
        for _ in range(n):
            v = max(uncolored, key=score.__getitem__)
            uncolored.remove(v)
            order.append(v)
            earlier.append(tuple(bits(adj[v] & colored)) if need_proper else ())
            colored |= 1 << v
            for w in bits(adj[v] & ~colored):
                score[w] += seen_step
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


def _search(plan: _SearchPlan, k: int, budget: Budget):
    """Find a valid assignment with at most k colors, or None.

    Backtracking with an explicit stack, so the depth is not bounded
    by the interpreter's recursion limit: step i colors ``order[i]``,
    ``trial[i]`` is the next color it tries and ``used[i]`` the
    number of colors in use before it.
    """
    n = plan.n
    if n == 0:
        return []
    col = [0] * n
    order = plan.order
    earlier = plan.earlier
    checks = plan.checks
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
        c = trial[i]
        while c <= top:
            spend()
            for w in enbrs:
                if col[w] == c:
                    break
            else:  # no earlier neighbor has c
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
    for k in ks:
        try:
            found = _search(plan, k, budget)
        except BudgetExceeded:
            stats = SolveStats(budget.nodes, (time.perf_counter() - start) * 1000)
            return SolveResult(parameter, None, None, "budget-exceeded", stats)
        if found is not None:
            stats = SolveStats(budget.nodes, (time.perf_counter() - start) * 1000)
            return SolveResult(parameter, k, Coloring(found), "exact", stats)
    raise AssertionError("deepening ran out at k = n; rainbow fallback should exist")


# -- minimum identifying code -------------------------------------------


def gamma_id_exact(g: Graph, budget=None) -> SolveResult:
    """Minimum identifying code size with a witness vertex set.

    Size search starts at ceil(log2(n+1)); any vertex forming a
    singleton closed-neighborhood symmetric difference with some pair
    is forced into every code.  Candidate sets are tried in
    lexicographic order, so the witness is deterministic.
    """
    _require_twin_free(g)
    if budget is None:
        budget = Budget()
    start = time.perf_counter()
    n = g.n
    if n == 0:
        return SolveResult("gamma-id", 0, frozenset(), "exact", SolveStats(0, 0.0))
    forced = 0
    for u in range(n):
        for v in range(u + 1, n):
            d = g.closed[u] ^ g.closed[v]
            if d.bit_count() == 1:
                forced |= d
    free = [v for v in range(n) if not (forced >> v & 1)]
    base = forced.bit_count()
    lower = max(n.bit_length(), base)

    # is_identifying_code costs O(n^2) per candidate; this is O(n)
    def identifying(code_mask: int) -> bool:
        seen = set()
        for v in range(n):
            key = g.closed[v] & code_mask
            if not key or key in seen:
                return False
            seen.add(key)
        return True

    for s in range(lower, n + 1):
        for extra in itertools.combinations(free, s - base):
            try:
                budget.spend()
            except BudgetExceeded:
                stats = SolveStats(budget.nodes, (time.perf_counter() - start) * 1000)
                return SolveResult("gamma-id", None, None, "budget-exceeded", stats)
            code_mask = forced | mask_of(extra)
            if identifying(code_mask):
                stats = SolveStats(budget.nodes, (time.perf_counter() - start) * 1000)
                witness = frozenset(bits(code_mask))
                return SolveResult("gamma-id", s, witness, "exact", stats)
    raise AssertionError("full vertex set identifies any twin-free graph")


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
    from .families import SplitPartition, _maximalize_split

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
