"""Bounds aggregation and the full-palette characterization.

Every bound carries a provenance tag and only fires when its
hypothesis has actually been checked, so a report is a small audit
trail: best lower, best upper, and exact when they meet.  The split
graph rules live in ``families``; the full-palette test is structural,
with no isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import find_split_partition
from .graph import (
    BudgetExceeded,
    Graph,
    GraphError,
    bipartition,
    is_twin_free,
    max_clique,
    quotient,
    twin_representatives,
)
from .coloring import is_rlid
from .solvers import Budget, cheap_bounds, deepen, gamma_id_exact, plan_cost


@dataclass(frozen=True)
class BoundsReport:
    """Aggregated (value, provenance) bounds for one graph."""

    lower_bounds: tuple
    upper_bounds: tuple
    best_lower: int
    best_upper: int
    exact: int | None
    notes: tuple = ()


def lower_bound_log_omega(g: Graph, budget=None) -> int:
    """ceil(log2 omega(G/R)) + 1: colors must tell clique neighborhoods apart."""
    if g.n == 0:
        return 0
    return (len(max_clique(g, budget, twin_representatives(g))) - 1).bit_length() + 1


def characterize_full_palette(g: Graph) -> bool:
    """True exactly when the optimum needs as many colors as vertices.

    The shape is forced: a universal vertex whose removal splits, as a
    join, into factors that are each either two isolated vertices or a
    (k-1)-th power of the path on 2k vertices.  Join factors are the
    connected components of the complement, and a factor on 2k
    vertices has one of these shapes exactly when its complement is a
    half graph: bipartite with k vertices a side, and one side's
    neighbourhoods nested with sizes 1..k.
    """
    if not g.is_connected():
        raise GraphError("characterization applies to connected graphs")
    if not is_twin_free(g):
        raise GraphError("characterization applies to twin-free graphs")
    if g.n == 1:
        return True
    full = (1 << g.n) - 1
    universal = [v for v in range(g.n) if g.closed[v] == full]
    if not universal:
        return False
    h, _ = g.induced([v for v in range(g.n) if v != universal[0]])
    hc = h.complement()
    sides = bipartition(hc)
    if sides is None:
        return False
    for comp in hc.components():
        side = [v for v in comp if v in sides[0]]
        if 2 * len(side) != len(comp):
            return False
        inner = 0
        for size, nbhd in enumerate(sorted((hc.adj[v] for v in side), key=int.bit_count), 1):
            if nbhd.bit_count() != size or nbhd & inner != inner:
                return False
            inner = nbhd
    return True


# node budget of each search step of bounds_report: the rlid search,
# and the gamma-id search behind the gamma-id + 1 upper bound
GAMMA_ID_NODE_BUDGET = 20_000


def _step_budget(budget):
    """A GAMMA_ID_NODE_BUDGET budget for one search step, cut to what is
    left of the caller's ``budget`` when one is given."""
    cap = GAMMA_ID_NODE_BUDGET
    if budget is not None:
        cap = min(cap, max(0, budget.max_nodes - budget.nodes))
    return Budget(cap)


def _charge(budget, step):
    """Charge a finished step's nodes to the caller's ``budget``."""
    if budget is not None:
        budget.nodes += step.nodes


def _search_bounds(g: Graph, lower: int, upper: int, budget: Budget):
    """The rlid search step: ``(lowers, uppers, notes)``.

    One ``deepen`` over k = lower .. upper - 1.  Each k without an rlid
    k-coloring lifts the lower bound to k + 1, listed once as
    ``search-infeasible`` with the last value; the first witness,
    checked by ``is_rlid``, is the upper bound ``search-witness``.  The
    plan build is charged to ``budget`` first (``solvers.plan_cost``),
    and a graph whose build alone exceeds it is skipped without
    building the plan.  A budget stop keeps what was proven and adds a
    note.
    """
    cost = plan_cost(g)
    if cost > budget.max_nodes:
        return [], [], ["search skipped: budget exceeded"]
    budget.nodes += cost
    res = deepen(g, "rlid", range(lower, upper), budget)
    lowers, uppers, notes = [], [], []
    k = upper if res.status == "infeasible" else res.stats.per_k[-1][0]
    if res.status == "exact":
        if not is_rlid(g, res.witness):
            raise AssertionError("search witness %r is not an rlid coloring" % (res.witness,))
        uppers.append((k, "search-witness"))
    elif res.status == "budget-exceeded":
        notes.append("search at %d skipped: budget exceeded" % k)
    if k > lower:
        lowers.append((k, "search-infeasible"))
    return lowers, uppers, notes


def bounds_report(g: Graph, *, budget=None) -> BoundsReport:
    """Certified bounds on the rlid optimum, cheapest first.

    1. The cheap bounds: ``solvers.cheap_bounds`` (order, the one-color
       rule, the no-two law and bipartite-3, the last with a verified
       witness), then the quotient-clique log bound (lower) and
       omega + 2 for connected twin-free split graphs (upper).
    2. While best lower L < best upper U: the rlid search step
       (``_search_bounds``), which deepens one rlid search from L and
       adds ``search-infeasible`` (lower) and ``search-witness``
       (upper).  A graph whose plan build alone exceeds the step's
       budget gets the note ``search skipped: budget exceeded``.
    3. On twin-free graphs, gamma-id + 1 from the identifying-code
       search, only when it could beat U: gamma-id >= ceil(log2(n+1)),
       so it is skipped, with a "not run" note, when L == U or
       n.bit_length() + 1 is not below U.
    4. With twins and L < U: the best upper bound of the twin
       quotient.

    Each search step runs under GAMMA_ID_NODE_BUDGET nodes, cut to
    what is left of ``budget`` when one is given, and its nodes are
    then charged to ``budget``.  A bound whose computation busts its
    budget is skipped with a note, never fatal.
    """
    if g.n == 0:
        return BoundsReport(((0, "order-n"),), ((0, "order-n"),), 0, 0, 0)
    lowers, uppers = cheap_bounds(g)
    uppers = [(v, prov) for v, prov, _ in uppers]
    notes = []

    try:
        lowers.append((lower_bound_log_omega(g, budget), "log-omega-quotient"))
    except BudgetExceeded:
        notes.append("log-omega-quotient skipped: clique budget exceeded")

    twin_free = is_twin_free(g)
    part = find_split_partition(g)
    if part is not None and g.is_connected() and twin_free:
        # the clique side is a maximum clique, hence maximal: the
        # partition meets the hypothesis of the omega + 2 bound
        uppers.append((len(part.clique) + 2, "split-omega-plus-2"))

    lower = max(v for v, _ in lowers)
    upper = min(v for v, _ in uppers)
    if lower < upper:
        step = _step_budget(budget)
        more_lowers, more_uppers, more_notes = _search_bounds(g, lower, upper, step)
        _charge(budget, step)
        lowers += more_lowers
        uppers += more_uppers
        notes += more_notes
        lower = max(v for v, _ in lowers)
        upper = min(v for v, _ in uppers)

    if twin_free:
        if lower < upper and g.n.bit_length() + 1 < upper:
            step = _step_budget(budget)
            res = gamma_id_exact(g, step)
            _charge(budget, step)
            if res.status == "exact":
                uppers.append((res.value + 1, "gamma-id-plus-1"))
            else:
                notes.append("gamma-id-plus-1 skipped: budget exceeded")
        else:
            notes.append("gamma-id-plus-1 not run: cannot tighten %d..%d" % (lower, upper))
    elif lower < upper:
        sub = bounds_report(quotient(g)[0], budget=budget)
        uppers.append((sub.best_upper, "quotient"))
        notes.extend("quotient: " + s for s in sub.notes)

    best_lower = max(v for v, _ in lowers)
    best_upper = min(v for v, _ in uppers)
    return BoundsReport(
        tuple(lowers),
        tuple(uppers),
        best_lower,
        best_upper,
        best_lower if best_lower == best_upper else None,
        tuple(notes),
    )
