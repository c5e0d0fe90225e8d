"""Bounds aggregation and the full-palette characterization.

Every bound carries a provenance tag and only fires when its
hypothesis has actually been checked, so a report is a small audit
trail: best lower, best upper, and exact when they meet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import _validate_split, find_split_partition, power_path
from .graph import (
    BudgetExceeded,
    Graph,
    GraphError,
    bipartition,
    bits,
    is_isomorphic,
    is_twin_free,
    max_clique_size,
    quotient,
)
from .solvers import Budget, gamma_id_exact


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
    q, _ = quotient(g)
    omega = max_clique_size(q, budget)
    return max(omega - 1, 0).bit_length() + 1


def split_lower_bound(g: Graph, part) -> int:
    """ceil(log2 omega) + 1 for connected twin-free split graphs.

    Every clique vertex's closed neighborhood contains the clique K, so
    its color set is a superset of C(K), the colors used on K.  Clique
    vertices are pairwise adjacent non-twins, so these omega = |K| sets
    are distinct, and a palette of k colors offers only 2^(k - |C(K)|)
    supersets of C(K).  Hence k >= |C(K)| + ceil(log2 omega) >=
    ceil(log2 omega) + 1.  On twin-free graphs this never beats
    lower_bound_log_omega, which bounds_report already lists.
    """
    if part is None:
        raise GraphError("split lower bound needs a clique/stable partition")
    _validate_split(g, part, for_separator=True)
    omega = len(part.clique)
    if omega < 1:
        raise GraphError("split lower bound needs a nonempty clique part")
    return (omega - 1).bit_length() + 1


def _all_components_cliques(g: Graph) -> bool:
    for comp in g.components():
        for v in comp:
            if g.closed[v] != g.closed[comp[0]]:
                return False
    return True


def characterize_full_palette(g: Graph) -> bool:
    """True exactly when the optimum needs as many colors as vertices.

    The shape is forced: a universal vertex whose removal splits, as a
    join, into factors that are each either two isolated vertices or a
    (k-1)-th power of the path on 2k vertices.  Join factors are the
    connected components of the complement.
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


# node budget of the gamma-id search behind the gamma-id + 1 upper bound
GAMMA_ID_NODE_BUDGET = 20_000


def bounds_report(g: Graph, *, budget=None) -> BoundsReport:
    """Cheap certified bounds on the rlid optimum.

    Upper bounds: order, 3 for bipartite graphs of order >= 3, omega + 2
    for connected twin-free split graphs, gamma-id + 1 (twin-free, under
    its own GAMMA_ID_NODE_BUDGET), and the quotient's best upper bound
    when twins exist.  Lower bounds: the quotient-clique log bound, the
    one-color rule (clique unions are exactly the 1-graphs) and the
    impossibility of 2.  The code search runs last, and only when its
    bound could beat the best upper bound so far: gamma-id >=
    ceil(log2(n+1)), so it is skipped, with a "not run" note, when
    the other bounds meet or n.bit_length() + 1 is not below the best
    upper bound.  A bound whose computation busts its budget is
    skipped with a note, never fatal.
    """
    if g.n == 0:
        return BoundsReport(((0, "order-n"),), ((0, "order-n"),), 0, 0, 0)
    lowers = []
    uppers = []
    notes = []

    uppers.append((g.n, "order-n"))

    cliques_only = _all_components_cliques(g)
    if cliques_only:
        lowers.append((1, "one-color-rule"))
        uppers.append((1, "one-color-rule"))
    else:
        # Not a clique union: one color is impossible, and two never happens.
        lowers.append((3, "no-two-rule"))

    try:
        lowers.append((lower_bound_log_omega(g, budget), "log-omega-quotient"))
    except BudgetExceeded:
        notes.append("log-omega-quotient skipped: clique budget exceeded")

    if g.n >= 3 and bipartition(g) is not None:
        uppers.append((3, "bipartite-3"))

    twin_free = is_twin_free(g)
    part = find_split_partition(g)
    if part is not None and g.is_connected() and twin_free:
        # the clique side is a maximum clique, hence maximal: the
        # partition meets the hypothesis of the omega + 2 bound
        uppers.append((len(part.clique) + 2, "split-omega-plus-2"))

    if twin_free:
        lower = max(v for v, _ in lowers)
        upper = min(v for v, _ in uppers)
        if lower < upper and g.n.bit_length() + 1 < upper:
            res = gamma_id_exact(g, Budget(GAMMA_ID_NODE_BUDGET))
            if res.status == "exact":
                uppers.append((res.value + 1, "gamma-id-plus-1"))
            else:
                notes.append("gamma-id-plus-1 skipped: budget exceeded")
        else:
            notes.append("gamma-id-plus-1 not run: cannot tighten %d..%d" % (lower, upper))

    if not twin_free:
        q, partn = quotient(g)
        sub = bounds_report(q, budget=budget)
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
