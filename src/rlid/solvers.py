"""Exact decision and optimization: backtracking search and
exhaustive enumeration.

The k-decision engine colors vertices in a fixed order built so that
pair checks fire early: each step takes the vertex that completes the
most constrained pairs' ``N[u] | N[v]``, then the one with the most
colored neighbors, then the one of highest degree (higher index on
ties; a static, pair-check version of DSATUR's saturation rule).  It
breaks color symmetry by allowing at most one brand-new color per step
and prunes as soon as both closed neighborhoods of a constrained pair
are fully colored with equal color sets; each closed neighborhood's
color set is one mask, set as its last member gets a color, so a check
is one compare.  The plan is one record per step of that order: the
vertex, the colored vertices it must differ from, the closed
neighborhoods and pair checks it completes, and whether it is a member
of the clique below.  Backtracking runs on an explicit stack, so
path-like inputs of any length search without recursion.  Search
is deterministic: fixed vertex order, ascending color trials.  Every
color trial is one node of the caller's ``Budget``; the search counts
them in a local and writes the count back on each exit, so
``budget.nodes`` reads the same as if it had called ``Budget.spend``
per node.

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
  vertex with the most colored D-neighbors.  It colors a greedy
  clique of D before anything else when the clique has three or more
  members, as Brelaz's DSATUR (CACM 1979) colors a clique first: the
  clique needs pairwise distinct colors, so a palette too small for it
  fails within the first few steps instead of deep in the tree.
- Clique color count (the log-omega bound on partial colorings).  Take
  a clique K of pairwise non-twins.  Each member's closed neighborhood
  contains K, so its color set contains C(K), the colors used on K;
  the |K| members are pairwise constrained, so these |K| sets differ.
  With k colors there are only 2^(k - |C(K)|) supersets of C(K), so
  |C(K)| <= k - ceil(log2 |K|).  C(K) only grows as the search colors
  more of K, so a partial coloring that breaks the bound has no valid
  completion.  Any such clique serves, so the plan grows a greedy
  clique over the twin-class representatives, by the rule that picks
  the clique of D above, and uses it when it has at least three
  members.  The search keeps C(K) as one color mask per step, extended
  when it advances past a member, so a member's step tests the bound
  with one bit count.

Both cuts only compare or count colors, so renaming colors keeps them;
the at-most-one-new-color rule and the values stay exact.

The search runs only between the bounds of ``cheap_bounds``, which
``chi_exact`` and ``bounds.bounds_report`` share, so for rlid a clique
union closes at 1 and a graph whose component quotients are each one
vertex or bipartite closes at 3, with no search.  An exact result
names the two bounds that met in ``stats.lower_by`` and
``stats.upper_by``.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from operator import itemgetter

from .coloring import Coloring, is_identifying_code, quotient_three_coloring
from .graph import (
    BudgetExceeded,
    Graph,
    GraphError,
    is_isomorphic,
    mask_of,
    members,
    twin_partition,
    twin_representatives,
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
    """What a solve cost: ``nodes`` in all, ``per_k`` as one ``(k, nodes)``
    row per k searched (``deepen`` only), and ``clique`` the size of the
    clique the color-count cut used (0 when none).  ``lower_by`` and
    ``upper_by`` name the two bounds that met on an exact value: a
    ``cheap_bounds`` tag, ``"search-infeasible"`` (the k below it was
    refuted) or ``"search-witness"``; both are None on a budget stop.
    No field depends on the machine."""

    nodes: int
    per_k: tuple = ()
    clique: int = 0
    lower_by: str | None = None
    upper_by: str | None = None


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact computation.

    ``status`` is "exact", "budget-exceeded" or, from ``deepen`` only,
    "infeasible"; in the latter two value and witness are None rather
    than a guess.
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


def _greedy_clique(nbrs, cand, rank) -> list:
    """A clique inside the mask ``cand``, as its vertices in pick order.

    Each pick takes the candidate with the most neighbors among the
    candidates (``nbrs`` holds one neighbor mask per vertex), the
    higher ``rank`` on ties, and keeps only the pick's neighbors as
    candidates, until none is left.  ``rank`` holds distinct values in
    0..len(rank) - 1.
    """
    step = len(rank) + 1
    clique = []
    while cand:
        best = best_key = -1
        rest = cand
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            key = (nbrs[w] & cand).bit_count() * step + rank[w]
            if key > best_key:
                best, best_key = w, key
            rest ^= low
        clique.append(best)
        cand &= nbrs[best]
    return clique


class _SearchPlan:
    """Per-(graph, parameter) precomputation shared across k values.

    ``steps`` holds one record ``(v, earlier, closing, checks,
    in_clique)`` per step of the coloring order, appended as the order
    is built in one greedy pass: each step colors the uncolored vertex
    v with the highest score
    ``lead * L + forced * F + closes * B**2 + seen * B + rank``
    (``B = n + 1``, ``F`` above any ``closes * B**2``, ``L = n * F``
    above every other term), where ``forced`` counts its colored
    neighbors in the forced-difference graph D (below), ``closes`` the
    constrained pairs whose ``N[u] | N[v]`` that vertex would complete,
    ``seen`` its colored neighbors, and ``rank`` its position in the
    vertices stably sorted by degree, so ties go to the higher degree,
    then to the higher index.  ``lead`` is 1 on a greedy clique of D
    (``_greedy_clique`` over all vertices) and 0 elsewhere.  Every
    valid coloring gives the clique pairwise distinct colors, so
    coloring it first refutes a too-small k in a few steps, as DSATUR
    (Brelaz, CACM 1979) colors a clique first.  The lead applies only
    to a clique of three or more members, and the clique is grown only
    when some vertex has two or more D-neighbors.  Any fixed order
    keeps the search exact and the at-most-one-new-color rule valid;
    proper mode has no D, so its order is unchanged.

    ``earlier`` lists the vertices colored before v that must get
    another color: its D-neighbors, and in proper and lid modes its
    graph neighbors too.  ``closing`` holds ``(u, N[u] - {v})`` (a
    vertex tuple) for each u with a constrained partner and v last in
    N[u]; ``checks`` the constrained pairs ``(a, b)`` with v last in
    ``N[a] | N[b]``.  ``in_clique`` says v is a member of ``clique``.

    The constrained pairs u < v (adjacent non-twins; every pair in id
    mode; none in proper mode) are walked once for each vertex's
    partners, D's edges and the triangle test below.  ``N[u] | N[b]``
    contains v exactly when u or b lies in N[v], so after coloring v
    each u in N[v] with at most one uncolored member of N[u] walks its
    partners (twice per u at most); a pair with both ends in N[v] is
    visited from the smaller.

    Two cuts hold in every valid coloring, and both only count or
    compare colors, so renaming colors keeps them:

    - Forced differences.  A pair with ``N[u] - N[v] = {a}`` and
      ``N[v] - N[u] = {b}`` compares C(N[u] & N[v]) + c(a) with
      C(N[u] & N[v]) + c(b), so c(a) != c(b).  One with
      ``N[u] - N[v] = {a}`` and N[v] inside N[u] compares C(N[v]) + c(a)
      with C(N[v]), so c(a) differs from every color on N[v].  D holds
      these pairs.
    - Clique color count.  ``clique`` is a greedy clique K of the
      graph (``_greedy_clique`` over the twin-class representatives,
      the same rule as the lead), so its members are pairwise
      non-twins, kept when |K| >= 3; any such clique serves, a maximum
      one or not.  Every member's N[] contains K, so its color set
      contains C(K), the colors on K; the |K| sets differ, and k colors
      offer 2^(k - |C(K)|) supersets of C(K).  So |C(K)| <= k - ``slack``
      with ``slack = ceil(log2 |K|)``, and C(K) only grows as the search
      colors more of K, so the cut is checked only at the steps whose
      ``in_clique`` is set.  The clique is grown only when an adjacent
      constrained pair has a common neighbor (a triangle of non-twins
      needs one).

    ``plan_cost`` bounds the work of this build in search nodes.
    """

    __slots__ = ("n", "steps", "clique", "slack")

    def __init__(self, g: Graph, spec: Parameter):
        if spec.twin_free:
            _require_twin_free(g)
        mode = spec.mode
        n = g.n
        adj, closed = g.adj, g.closed
        self.n = n

        partners = [[] for _ in range(n)]  # per vertex: the vertices paired with it
        forced = [0] * n   # D's adjacency masks
        pairs = 0
        triangle = False
        if mode != "proper":
            everyone = (1 << n) - 1
            for u in range(n):
                cu = closed[u]
                # the v > u paired with u: its neighbors, or all in id mode
                rest = (everyone if mode == "id" else adj[u]) >> (u + 1)
                while rest:
                    low = rest & -rest
                    rest ^= low
                    v = u + low.bit_length()
                    cv = closed[v]
                    if cv == cu:
                        continue
                    partners[u].append(v)
                    partners[v].append(u)
                    pairs += 1
                    both = cu & cv
                    ou, ov = cu ^ both, cv ^ both
                    if not (ou & (ou - 1) or ov & (ov - 1)):
                        if ou and ov:
                            forced[ou.bit_length() - 1] |= ov
                            forced[ov.bit_length() - 1] |= ou
                        else:
                            # one side is a single vertex a, the other N[] is all common
                            a = ou | ov
                            forced[a.bit_length() - 1] |= both
                            for w in members(both):
                                forced[w] |= a
                    if not triangle and both.bit_count() > 2 and adj[u] >> v & 1:
                        triangle = True

        # rank: a stable sort by degree, so a tie goes to the higher
        # degree, then to the higher index
        deg = [a.bit_count() for a in adj]
        score = [0] * n
        for rank, v in enumerate(sorted(range(n), key=deg.__getitem__)):
            score[v] = rank
        self.clique = ()
        if triangle:
            found = _greedy_clique(adj, twin_representatives(g), score)
            if len(found) >= 3:
                self.clique = tuple(found)
        self.slack = (len(self.clique) - 1).bit_length() if self.clique else 0

        seen_step = n + 1
        closes_step = seen_step * seen_step
        forced_step = closes_step * (pairs + 1)
        if any(f & (f - 1) for f in forced):
            lead = _greedy_clique(forced, (1 << n) - 1, score)
            if len(lead) >= 3:
                lead_step = forced_step * n
                for v in lead:
                    score[v] += lead_step
        # proper mode has no pairs, so its forced masks are all zero
        differ = [a | d for a, d in zip(adj, forced)] if mode in ("proper", "lid") else forced
        clique_mask = mask_of(self.clique)
        uncolored = set(range(n))
        free = (1 << n) - 1  # the uncolored vertices
        steps = []
        for _ in range(n):
            v = max(uncolored, key=score.__getitem__)
            uncolored.remove(v)
            free ^= 1 << v
            apart = members(differ[v] & ~free)
            rest = forced[v] & free
            while rest:
                low = rest & -rest
                score[low.bit_length() - 1] += forced_step
                rest ^= low
            closing, done = [], []
            near = closed[v]
            mask = near
            while mask:
                low = mask & -mask
                mask ^= low
                u = low.bit_length() - 1
                if low & free:  # an uncolored neighbor of v
                    score[u] += seen_step
                if not partners[u]:
                    continue
                own = closed[u] & free
                if own & (own - 1):
                    continue
                if not own:
                    closing.append((u, members(closed[u] ^ 1 << v)))
                for b in partners[u]:
                    if b < u and near >> b & 1:
                        continue  # the visit from b covers this pair
                    rest = own | closed[b] & free
                    if not rest:
                        done.append((u, b))
                    elif not rest & (rest - 1):
                        score[rest.bit_length() - 1] += closes_step
            steps.append((v, apart, tuple(closing), tuple(done), clique_mask >> v & 1 == 1))
        self.steps = tuple(steps)


def plan_cost(g: Graph) -> int:
    """Nodes to charge for building the rlid ``_SearchPlan`` of ``g``.

    An upper bound on the build's work, not what it stores: the sizes
    of N[u] | N[v] over the constrained pairs (edges), at most
    deg u + deg v + 2 each, sum to sum(deg^2) + 2m, and the order
    loop's scans of the uncolored vertices add n(n + 1) / 2.
    """
    square = sum(a.bit_count() ** 2 for a in g.adj)
    return square + 2 * g.edge_count + g.n * (g.n + 1) // 2


def _search(plan: _SearchPlan, k: int, budget: Budget):
    """Find a valid assignment with at most k colors, or None.

    Backtracking with an explicit stack, so the depth is not bounded
    by the interpreter's recursion limit: step i unpacks its record
    ``(v, earlier, closing, checks, in_clique)`` from ``plan.steps``;
    ``trial[i]`` is the next color it tries, ``used[i]`` the number of
    colors in use before it and ``on_clique[i]`` the mask of colors on
    the clique members colored before it, both filled in when the
    search advances to step i, as is ``base[u]``, the colors on
    ``rest`` for each ``(u, rest)`` of ``closing`` (fixed while the
    search is at step i or deeper).  A trial of color c sets ``cs[u] =
    base[u] | 1 << c``, so a check ``(a, b)`` is ``cs[a] == cs[b]``.
    A color is cut when a vertex of ``earlier`` has it, when v is a
    clique member, the clique already carries ``k - slack`` colors and
    the color is not one of them, or when a pair check it completes
    finds equal color sets.  Each color trial is one node: the count
    goes on from ``budget.nodes`` in a local and is stored back on every
    exit, and node ``max_nodes + 1`` raises BudgetExceeded as
    ``Budget.spend`` would.
    """
    n = plan.n
    if n == 0:
        return []
    limit = k - plan.slack
    if plan.clique and limit < 1:
        return None
    col = [0] * n
    base = [0] * n     # per closing vertex u: the colors on its ``rest``
    cs = [0] * n       # per closing vertex u: the colors on N[u]
    steps = plan.steps
    nodes, cap = budget.nodes, budget.max_nodes
    trial = [1] * n
    used = [0] * n
    on_clique = [0] * n
    i = 0
    while True:
        v, enbrs, closing, pair_checks, in_clique = steps[i]
        top = used[i] + 1
        if top > k:
            top = k
        # colors the clique count allows: all (-1), or only those
        # already on the clique once it carries ``limit`` of them
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
                else:  # no earlier vertex that must differ has c
                    col[v] = c
                    bit = 1 << c
                    for u, _ in closing:
                        cs[u] = base[u] | bit
                    for a, b in pair_checks:
                        if cs[a] == cs[b]:
                            break
                    else:  # every check passed: v keeps c
                        break
            c += 1
        if c > top:
            # no color fits order[i]: back up one step
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
            for u, rest in steps[i][2]:
                m = 0
                for w in rest:
                    m |= 1 << col[w]
                base[u] = m


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


def deepen(g: Graph, parameter: str, ks, budget: Budget) -> SolveResult:
    """Search the palette sizes ``ks`` in turn on one search plan.

    The first k with a coloring gives exact k with that witness
    (``search-witness``).  A budget stop gives "budget-exceeded", and a
    refutation of every k "infeasible" (``search-infeasible``); both
    have value None.  ``stats.per_k`` has one ``(k, nodes)`` row per k
    searched, the last one the k a budget stop came in.
    """
    spec = PARAMETERS[parameter]
    plan = _SearchPlan(g, spec)
    per_k = []
    status, value, witness = "infeasible", None, None
    for k in ks:
        before = budget.nodes
        try:
            found = _search(plan, k, budget)
        except BudgetExceeded:
            found, status = None, "budget-exceeded"
        per_k.append((k, budget.nodes - before))
        if found is not None:
            status, value, witness = "exact", k, Coloring(found)
        if status != "infeasible":
            break
    exact = status == "exact"
    lower_by = "search-infeasible" if status != "budget-exceeded" and len(per_k) > exact else None
    upper_by = "search-witness" if exact else None
    stats = SolveStats(budget.nodes, tuple(per_k), len(plan.clique), lower_by, upper_by)
    return SolveResult(spec.name, value, witness, status, stats)


_value = itemgetter(0)  # a bound's value: the key that picks the best bound


@functools.lru_cache(maxsize=64)
def _rainbow(n: int) -> Coloring:
    """Each of the n vertices in its own color; one shared immutable copy per n."""
    return Coloring(range(1, n + 1))


def cheap_bounds(g: Graph, parameter: str = "rlid", search_two: bool = False):
    """The bounds that need no search: lower bounds ``(value,
    provenance)`` and upper bounds ``(value, provenance, witness)``.

    Every parameter has the upper bound ``order-n`` with the rainbow
    coloring (valid wherever the parameter's precondition holds), and a
    graph with a vertex the lower bound 1 (``nonempty``).  For rlid,
    unless ``search_two`` is set, one level walk per component
    (``coloring.quotient_three_coloring``) decides instead: a clique
    union gets 1..1 (``one-color-rule``, all ones), any other graph the
    lower bound 3 (``no-two-rule``: two colors never suffice), and one
    whose component quotients are each one vertex or bipartite the
    upper bound 3 (``bipartite-3``).
    """
    n = g.n
    uppers = [(n, "order-n", _rainbow(n))]
    if n == 0:
        return [(0, "order-n")], uppers
    if parameter != "rlid" or search_two:
        return [(1, "nonempty")], uppers
    found = quotient_three_coloring(g)  # verified by is_rlid
    if found is not None and found.palette == 1:
        return [(1, "one-color-rule")], uppers + [(1, "one-color-rule", found)]
    return [(3, "no-two-rule")], uppers + ([] if found is None else [(3, "bipartite-3", found)])


def chi_exact(g: Graph, parameter: str = "rlid", budget=None, *, search_two: bool = False) -> SolveResult:
    """Minimum palette size for the requested parameter.

    ``deepen`` searches k = L .. U - 1, where L is the largest lower
    bound of ``cheap_bounds`` and U its smallest upper bound (the first
    listed on a tie): the first k with a coloring is the value, and when
    every k is refuted (or L == U, with no search) it is U, with U's
    witness.  ``stats.lower_by`` and ``stats.upper_by`` name the two
    bounds that met.  ``search_two=True`` drops the rlid rules, so the
    search starts at k = 1, e.g. to audit the no-two law.
    """
    spec = PARAMETERS.get(parameter)
    if spec is None:
        raise GraphError(
            "unknown parameter %r (expected one of %s)" % (parameter, ", ".join(PARAMETERS))
        )
    parameter = spec.name
    if budget is None:
        budget = Budget()
    lowers, uppers = cheap_bounds(g, parameter, search_two)
    lower, lower_by = max(lowers, key=_value)
    upper, upper_by, witness = min(uppers, key=_value)
    if lower == upper:
        stats = SolveStats(budget.nodes, lower_by=lower_by, upper_by=upper_by)
    else:
        res = deepen(g, parameter, range(lower, upper), budget)
        stats = res.stats
        if res.status == "budget-exceeded" or stats.lower_by and stats.upper_by:
            return res  # a stop, or a witness above L: deepen's tags say it all
        if res.status == "exact":
            upper, witness = res.value, res.witness
        stats = SolveStats(budget.nodes, stats.per_k, stats.clique,
                           stats.lower_by or lower_by, stats.upper_by or upper_by)
    return SolveResult(parameter, upper, witness, "exact", stats)


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
        for w in members(closed[u]):
            near |= closed[w]
        for v in members(near & ~((2 << u) - 1)):
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
        for w in members(c):
            rows[w][byte] |= bit
    containing = [int.from_bytes(row, "little") for row in rows]
    dropped = 0
    for i, c in enumerate(sets):
        own = 1 << i
        if dropped & own:
            continue
        over = -1
        for w in members(c):
            over &= containing[w]
            if over == own:
                break
        dropped |= over ^ own
    return sets, containing, ((1 << len(sets)) - 1) & ~dropped


def _greedy_code(containing: list, unmet: int) -> int:
    """Add the vertex meeting the most unmet sets until none is left;
    the smallest index wins ties."""
    # a lazy heap of (-count, vertex): counts only fall, so a popped
    # entry whose count still holds is the maximum, smallest index first
    heap = [(-(c & unmet).bit_count(), v) for v, c in enumerate(containing)]
    heapq.heapify(heap)
    code = 0
    while unmet:
        key, v = heapq.heappop(heap)
        count = (containing[v] & unmet).bit_count()
        if count != -key:
            heapq.heappush(heap, (-count, v))
            continue
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

    def expand(size, unmet, taken, barred):
        """One pass over the parent's unmet sets, each already cut down
        to the parent's allowed vertices: drop the sets ``taken`` meets,
        bar ``barred`` from the rest, and evaluate the node.  Returns
        ``(rest, pick)``, where ``pick`` holds the allowed vertices of
        the tightest set in ``rest``, or None to cut the node.  Packing
        only grows, so the cut is taken as soon as it is certain."""
        room = best_size - size if floor < best_size else 0
        allowed = ~barred
        rest = []
        pick, fewest, used, packing = 0, n + 1, 0, 0
        for s in unmet:
            if s & taken:
                continue
            a = s & allowed
            k = a.bit_count()
            if k < fewest:
                if not k:
                    return None
                pick, fewest = a, k
            if not a & used:
                used |= a
                packing += 1
                if packing >= room:
                    return None
            rest.append(a)
        return rest, pick

    # explicit stack of [chosen, unmet, pick, candidates, next index]
    spend()
    root = expand(0, sets, 0, 0)
    stack = [] if root is None else [[0, root[0], root[1], list(members(root[1])), 0]]
    while stack:
        frame = stack[-1]
        chosen, unmet, pick, cands, i = frame
        if i == len(cands):
            stack.pop()
            continue
        frame[4] = i + 1
        spend()
        bit = 1 << cands[i]
        child = chosen | bit
        size = child.bit_count()
        node = expand(size, unmet, bit, pick & (bit - 1))
        if node is None:
            continue
        rest, nxt = node
        if not rest:
            if size < best_size:
                best, best_size = child, size
            continue
        stack.append([child, rest, nxt, list(members(nxt)), 0])
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
    n = g.n
    if n == 0:
        stats = SolveStats(0, lower_by="order-n", upper_by="order-n")
        return SolveResult("gamma-id", 0, frozenset(), "exact", stats)
    try:
        sets, containing, live = _code_constraints(g, budget.spend)
        kept = [sets[i] for i in members(live)]
        greedy = _greedy_code(containing, live)
        code_mask = _min_hitting_set(kept, n, n.bit_length(), greedy, budget.spend)
    except BudgetExceeded:
        return SolveResult("gamma-id", None, None, "budget-exceeded", SolveStats(budget.nodes))
    witness = frozenset(members(code_mask))
    if not is_identifying_code(g, witness):
        raise AssertionError("hitting set %r is not an identifying code" % (code_mask,))
    stats = SolveStats(budget.nodes, lower_by="search-infeasible", upper_by="search-witness")
    return SolveResult("gamma-id", len(witness), witness, "exact", stats)


# -- exhaustive enumeration ---------------------------------------------


# 2^21 labeled graphs at order 7
MAX_ENUMERATION_ORDER = 7


def enumerate_graphs(order: int, filter=None, *, up_to_iso: bool = False):
    """Stream all labeled graphs of the given order, smallest mask first.

    The graph at ``mask`` is ``graph_from_edge_mask(order, mask)``.  One
    list of adjacency masks is kept and, from ``mask - 1`` to ``mask``,
    only the pairs of the trailing run ``mask ^ (mask - 1)`` are flipped
    (two on average); each step yields a fresh copy.

    ``filter`` is an optional Graph -> bool predicate applied before
    yielding.  With ``up_to_iso`` only the first representative of each
    isomorphism class (among filtered graphs) is produced; this is a
    convenience for reporting, the full labeled stream is the primary
    contract.  Order is capped at MAX_ENUMERATION_ORDER.
    """
    if not 0 <= order <= MAX_ENUMERATION_ORDER:
        raise GraphError(
            "exhaustive enumeration supports order 0..%d, got %r" % (MAX_ENUMERATION_ORDER, order)
        )
    m = order * (order - 1) // 2
    # pair i of graph_from_edge_mask's numbering as (u, 1 << v, v, 1 << u);
    # runs[t] holds pairs 0..t-1, those flipped when mask has t - 1
    # trailing zeros
    pairs = [(u, 1 << v, v, 1 << u) for u, v in itertools.combinations(range(order), 2)]
    runs = [pairs[:t] for t in range(m + 1)]
    adj = [0] * order
    seen_buckets = {}
    for mask in range(1 << m):
        for u, bit_v, v, bit_u in runs[(mask & -mask).bit_length()]:
            adj[u] ^= bit_v
            adj[v] ^= bit_u
        g = Graph.from_adj_masks(order, adj)
        if filter is not None and not filter(g):
            continue
        if up_to_iso:
            deg = [a.bit_count() for a in g.adj]
            nbr_degs = tuple(sorted(tuple(sorted(deg[w] for w in members(a))) for a in g.adj))
            key = (tuple(sorted(deg)), nbr_degs)
            reps = seen_buckets.setdefault(key, [])
            if any(is_isomorphic(g, r) for r in reps):
                continue
            reps.append(g)
        yield g
