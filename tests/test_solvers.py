"""Exact decision and optimization procedures against the brute oracle."""

import random
from itertools import combinations, islice

import pytest

from rlid import (
    Budget,
    BudgetExceeded,
    GraphError,
    bipartite_three_coloring,
    build_graph,
    chi_exact,
    decide_k_proper,
    decide_k_rlid,
    enumerate_graphs,
    gamma_id_exact,
    is_identifying_code,
    is_rlid,
    is_twin_free,
    max_clique_size,
    quotient,
    random_split_graph,
    verify_rlid,
)
from rlid.families import g_star, h_p, power_path, prop1_graph, q1, q2
from rlid.graph import Graph, edge_mask, graph_from_edge_mask, is_isomorphic, members
from rlid.solvers import (
    PARAMETERS,
    _code_constraints,
    _greedy_code,
    _min_hitting_set,
    _search,
    _SearchPlan,
    cheap_bounds,
    deepen,
)

from _helpers import blow_up, complete, cycle, grid, path, star_graph, wheel
from _oracles import (
    adjacency,
    all_labeled_graphs,
    brute_bipartite,
    brute_chi,
    brute_connected,
    brute_forced_differences,
    brute_gamma_id,
    brute_is_id,
    brute_is_lid,
    brute_is_proper,
    brute_is_rlid,
    brute_max_clique,
    brute_quotient,
    brute_twin_free,
    closed_neighborhoods,
    reference_greedy_code,
    reference_min_hitting_set,
    reference_plan,
    reference_search,
)


def _expected_checks(n, edges, mode):
    """Every pair u < v the mode constrains, sorted."""
    closed = closed_neighborhoods(n, edges)
    if mode == "proper":
        return []
    if mode == "id":
        return list(combinations(range(n), 2))
    return sorted(tuple(sorted(e)) for e in edges if closed[e[0]] != closed[e[1]])


class TestSearchPlan:
    @pytest.mark.parametrize("name", ["rlid", "lid", "id", "chromatic"])
    def test_invariants_on_all_graphs_up_to_order_five(self, name):
        spec = PARAMETERS[name]
        for n in range(6):
            for edges in all_labeled_graphs(n):
                if spec.twin_free and not brute_twin_free(n, edges):
                    continue
                plan = _SearchPlan(build_graph(n, edges), spec)
                order = [step[0] for step in plan.steps]
                assert sorted(order) == list(range(n))
                pos = {v: i for i, v in enumerate(order)}
                closed = closed_neighborhoods(n, edges)
                expected = _expected_checks(n, edges, spec.mode)
                got, closers = [], []
                for i, (v, _, closing, checks, _) in enumerate(plan.steps):
                    for a, b in checks:
                        # the check sits at the step coloring the last
                        # member of N[a] | N[b]
                        assert max(pos[w] for w in closed[a] | closed[b]) == i
                        got.append(tuple(sorted((a, b))))
                    for u, rest in closing:
                        # N[u]'s color set is set at its last member's step
                        assert max(pos[w] for w in closed[u]) == i
                        assert rest == tuple(sorted(closed[u] - {v}))
                        closers.append(u)
                assert sorted(got) == expected
                assert sorted(closers) == sorted({w for pair in expected for w in pair})
                nbrs = adjacency(n, edges)
                forced = brute_forced_differences(n, edges, spec.mode)
                for i, (v, earlier, _, _, _) in enumerate(plan.steps):
                    want = {w for w in range(n) if pos[w] < i and frozenset((v, w)) in forced}
                    if spec.mode in ("proper", "lid"):
                        want.update(w for w in nbrs[v] if pos[w] < i)
                    assert sorted(earlier) == sorted(want)
                # the cut's clique: pairwise adjacent non-twins, only
                # from size 3; below order 6 the greedy clique is always
                # as large as the quotient's maximum clique
                for a, b in combinations(plan.clique, 2):
                    assert b in nbrs[a] and closed[a] != closed[b]
                omega = brute_max_clique(*brute_quotient(n, edges))
                if spec.mode == "proper" or omega < 3:
                    assert plan.clique == ()
                else:
                    assert len(plan.clique) == omega
                for v, _, _, _, in_clique in plan.steps:
                    assert in_clique is (v in plan.clique)

    @pytest.mark.parametrize(
        "g, size",
        [(prop1_graph(4).graph, 4), (g_star(wheel(5)).graph, 3), (g_star(complete(5)).graph, 5)],
        ids=["prop1_4", "g_star_W5", "g_star_K5"],
    )
    def test_forced_difference_clique_is_colored_first(self, g, size):
        edges = list(g.edges())
        forced = brute_forced_differences(g.n, edges, "rlid")
        head = [step[0] for step in _SearchPlan(g, PARAMETERS["rlid"]).steps[:size]]
        for a, b in combinations(head, 2):
            assert frozenset((a, b)) in forced

    def test_greedy_cut_clique_below_the_maximum(self):
        # vertex 6 sees every other vertex; among its neighbors 0, 2 and 4
        # tie at three neighbors and degree 4, so the higher index, 4,
        # goes next, and of its neighbors 1, 2 and 5 (no edge among them)
        # the one of highest degree, 2.  The maximum clique is {0, 2, 3, 6}.
        n = 7
        edges = [(0, 2), (0, 3), (0, 5), (0, 6), (1, 4), (1, 6), (2, 3),
                 (2, 4), (2, 6), (3, 6), (4, 5), (4, 6), (5, 6)]
        g = build_graph(n, edges)
        plan = _SearchPlan(g, PARAMETERS["rlid"])
        assert plan.clique == reference_plan(g, "rlid")[4] == (6, 4, 2)
        assert brute_max_clique(*brute_quotient(n, edges)) == 4
        closed = closed_neighborhoods(n, edges)
        for a, b in combinations(plan.clique, 2):
            assert g.has_edge(a, b) and closed[a] != closed[b]
        res = chi_exact(g, "rlid")
        assert res.stats.clique == 3
        assert res.value == brute_chi(n, edges, brute_is_rlid)
        assert is_rlid(g, res.witness)

    def test_plan_matches_the_reference_build(self):
        # the partner walk builds the same plan as the pair-list build it
        # replaced: the same order, earlier, in_clique, clique and slack
        # field for field, and each step's checks are the pairs of the
        # reference's check triples at that step: all labeled graphs of
        # order <= 5, the gadgets of the connected twin-free graphs of
        # order 3-4, a few family members and a shuffled long path
        graphs = [build_graph(n, edges) for n in range(6) for edges in all_labeled_graphs(n)]
        for n in (3, 4):
            for g in enumerate_graphs(n, lambda g: g.is_connected() and is_twin_free(g)):
                graphs.append(g_star(g).graph)
        graphs += [prop1_graph(4).graph, h_p(4).graph, power_path(6), q1(5).graph, q2(8).graph]
        label = list(range(100))
        random.Random(20).shuffle(label)
        graphs.append(build_graph(100, [(label[i], label[i + 1]) for i in range(99)]))
        plans = 0
        for g in graphs:
            twin_free = is_twin_free(g)
            for name in ("rlid", "lid", "id", "chromatic"):
                spec = PARAMETERS[name]
                if spec.twin_free and not twin_free:
                    continue
                plan = _SearchPlan(g, spec)
                got = [
                    (v, e, sorted(tuple(sorted(p)) for p in c), f) for v, e, _, c, f in plan.steps
                ]
                n, order, earlier, checks, clique, slack, before = reference_plan(g, spec.mode)
                want = [
                    (v, e, sorted(p for p, _ in c), b is not None)
                    for v, e, c, b in zip(order, earlier, checks, before)
                ]
                assert (plan.n, got, plan.clique, plan.slack) == (n, want, clique, slack), (
                    name,
                    sorted(g.edges()),
                )
                plans += 1
        assert plans == 3564
        assert _SearchPlan.__slots__ == ("n", "steps", "clique", "slack")

    def test_search_matches_the_reference_search(self):
        # the mask-compare search returns the same coloring (or None) and
        # leaves the same node count as the triple-check search it
        # replaced, run on the reference plan, for every k and under
        # budgets that stop it at node 2, 8 or 301 or never: all labeled
        # graphs of order <= 5 and a few named graphs and cycles.  Without
        # a cap lid and id run for hours on the longer cycles, so on the
        # named graphs and cycles they get a 2,000-node cap instead.
        small = [build_graph(n, edges) for n in range(6) for edges in all_labeled_graphs(n)]
        named = [h_p(4).graph, prop1_graph(4).graph, power_path(6), g_star(wheel(5)).graph]
        named += [cycle(n) for n in range(4, 41)]
        runs = 0
        for g in small + named:
            twin_free = is_twin_free(g)
            for name in ("rlid", "lid", "id", "chromatic"):
                spec = PARAMETERS[name]
                if spec.twin_free and not twin_free:
                    continue
                plan = _SearchPlan(g, spec)
                ref = reference_plan(g, spec.mode)
                last = 2000 if spec.twin_free and g.n > 5 else None
                for k in range(1, g.n + 1):
                    for cap in (1, 7, 300, last):
                        outcomes = []
                        for search, p in ((_search, plan), (reference_search, ref)):
                            budget = Budget(cap)
                            try:
                                found = search(p, k, budget)
                            except BudgetExceeded as exc:
                                found = ("stop", exc.nodes)
                            outcomes.append((found, budget.nodes))
                        assert outcomes[0] == outcomes[1], (name, k, cap, sorted(g.edges()))
                        runs += 1
        assert runs == 82552

    def test_gadget_sweep_node_guard(self):
        # proper 3-coloring of every connected twin-free graph of order 3..5
        # and rlid 3-coloring of its gadget, all under one 100k-node budget
        budget = Budget(max_nodes=100_000)
        graphs = 0
        for n in (3, 4, 5):
            for g in enumerate_graphs(n, lambda g: g.is_connected() and is_twin_free(g)):
                decide_k_proper(g, 3, budget)
                decide_k_rlid(g_star(g).graph, 3, budget)
                graphs += 1
        assert graphs == 484


class TestDecide:
    def test_triangle_with_one_color(self):
        c = decide_k_rlid(complete(3), 1)
        assert c is not None
        assert c.colors == (1, 1, 1)

    def test_p4_two_colors_absent(self):
        assert decide_k_rlid(path(4), 2) is None

    def test_c4_three_colors_witness_verifies(self):
        c = decide_k_rlid(cycle(4), 3)
        assert c is not None
        assert c.palette <= 3
        assert is_rlid(cycle(4), c)

    def test_budget_exhaustion_distinct_from_absent(self):
        with pytest.raises(BudgetExceeded):
            decide_k_rlid(cycle(7), 3, Budget(max_nodes=2))

    def test_budget_counts_nodes_only(self):
        budget = Budget(max_nodes=2)
        with pytest.raises(BudgetExceeded) as exc:
            decide_k_rlid(cycle(7), 3, budget)
        assert exc.value.nodes == budget.nodes == 3

    @pytest.mark.parametrize("cap", [3, 5, 20, 52])
    def test_a_budget_stop_leaves_one_node_past_the_cap(self, cap):
        # h_p(4) needs 53 nodes at k = 5
        budget = Budget(max_nodes=cap)
        with pytest.raises(BudgetExceeded) as exc:
            decide_k_rlid(h_p(4).graph, 5, budget)
        assert exc.value.nodes == budget.nodes == cap + 1
        assert str(exc.value) == "node budget %d exceeded" % cap

    def test_the_search_counts_on_from_the_budget_it_is_given(self):
        plan = _SearchPlan(h_p(4).graph, PARAMETERS["rlid"])
        budget = Budget(max_nodes=100)
        budget.nodes = 40
        assert _search(plan, 5, budget) is not None
        assert budget.nodes == 40 + 53
        budget.nodes = 60
        with pytest.raises(BudgetExceeded) as exc:
            _search(plan, 5, budget)
        assert exc.value.nodes == budget.nodes == 101
        # a k refuted before any node leaves the count as it was
        budget.nodes = 7
        assert _search(plan, 4, budget) is None
        assert budget.nodes == 7

    def test_deterministic_witness(self):
        a = decide_k_rlid(cycle(5), 3)
        b = decide_k_rlid(cycle(5), 3)
        assert a == b


class TestChiExact:
    def test_p3(self):
        res = chi_exact(path(3), "rlid")
        assert (res.parameter, res.value, res.status) == ("rlid", 3, "exact")
        assert is_rlid(path(3), res.witness)

    def test_h2(self):
        assert chi_exact(h_p(2).graph, "rlid").value == 3

    def test_k4_chromatic(self):
        assert chi_exact(complete(4), "chromatic").value == 4

    def test_unknown_parameter_rejected(self):
        with pytest.raises(GraphError):
            chi_exact(path(3), "nope")

    def test_empty_graph(self):
        assert chi_exact(build_graph(0, []), "rlid").value == 0

    def test_path_longer_than_the_recursion_limit(self):
        res = chi_exact(path(1200), "rlid")
        assert (res.value, res.status) == (3, "exact")
        assert is_rlid(path(1200), res.witness)

    @pytest.mark.parametrize("g", [path(4), cycle(5), star_graph(3)])
    def test_two_color_skip_agrees_with_slow_path(self, g):
        assert chi_exact(g, "rlid").value == chi_exact(g, "rlid", search_two=True).value

    def test_budget_exceeded_status(self):
        res = chi_exact(cycle(7), "rlid", Budget(max_nodes=2))
        assert res.status == "budget-exceeded"
        assert res.value is None

    @pytest.mark.parametrize(
        "g",
        [path(4), cycle(4), cycle(5), star_graph(4), complete(4)],
    )
    def test_rlid_matches_brute_force(self, g):
        want = brute_chi(g.n, list(g.edges()), brute_is_rlid)
        assert chi_exact(g, "rlid", search_two=True).value == want

    @pytest.mark.parametrize(
        "name, predicate",
        [("lid", brute_is_lid), ("id", brute_is_id), ("chromatic", brute_is_proper)],
        ids=["lid", "id", "chromatic"],
    )
    def test_matches_brute_force_on_twin_free_graphs(self, name, predicate):
        # the forced-difference and clique cuts reach these modes too
        checked = 0
        for n in range(6):
            for edges in all_labeled_graphs(n):
                if not brute_twin_free(n, edges):
                    continue
                res = chi_exact(build_graph(n, edges), name)
                assert res.value == brute_chi(n, edges, predicate), edges
                checked += 1
        assert checked == 627

    @pytest.mark.parametrize(
        "g, value",
        [
            (h_p(4).graph, 5),
            (h_p(5).graph, 6),
            (q1(5).graph, 6),
            (q2(8).graph, 9),
            (g_star(wheel(5)).graph, 4),
            (g_star(complete(5)).graph, 5),
            (power_path(6), 11),
            (prop1_graph(4).graph, 4),
        ],
        ids=["h_p4", "h_p5", "q1_5", "q2_8", "g_star_W5", "g_star_K5", "power_path6", "prop1_4"],
    )
    def test_node_guard(self, g, value):
        # each needs over 5,000 nodes without the clique and forced-difference
        # cuts; prop1_graph(4) also needs D's clique colored first
        res = chi_exact(g, "rlid", Budget(max_nodes=5_000))
        assert (res.status, res.value) == ("exact", value)
        assert is_rlid(g, res.witness)

    @pytest.mark.parametrize(
        "g", [cycle(5), cycle(7), h_p(4).graph, g_star(wheel(5)).graph, power_path(6)],
        ids=["C5", "C7", "h_p4", "g_star_W5", "power_path6"],
    )
    def test_stats_nodes_are_the_budget_nodes_and_the_per_k_sum(self, g):
        budget = Budget()
        res = chi_exact(g, "rlid", budget)
        assert res.status == "exact"
        assert res.stats.nodes == budget.nodes == sum(n for _, n in res.stats.per_k) > 0

    @pytest.mark.parametrize("cap", [3, 5])
    def test_budget_stop_stats(self, cap):
        budget = Budget(max_nodes=cap)
        res = chi_exact(h_p(4).graph, "rlid", budget)
        assert (res.status, res.value, res.witness) == ("budget-exceeded", None, None)
        assert res.stats.nodes == budget.nodes == cap + 1
        assert res.stats.per_k == ((3, 0), (4, 0), (5, cap + 1))
        assert (res.stats.lower_by, res.stats.upper_by) == (None, None)

    def test_per_k_rows_and_clique_of_h4(self):
        g = h_p(4).graph
        res = chi_exact(g, "rlid")
        assert [k for k, _ in res.stats.per_k] == [3, 4, 5]
        assert sum(nodes for _, nodes in res.stats.per_k) == res.stats.nodes
        assert res.stats.clique == 16 == max_clique_size(quotient(g)[0])

    @pytest.mark.parametrize(
        "g, value, nodes, per_k",
        [
            (h_p(4).graph, 5, 53, ((3, 0), (4, 0), (5, 53))),
            (h_p(5).graph, 6, 83, ((3, 0), (4, 0), (5, 0), (6, 83))),
            (prop1_graph(4).graph, 4, 165, ((3, 9), (4, 156))),
            (power_path(5), 9, 156, ((3, 0), (4, 3), (5, 6), (6, 10), (7, 15), (8, 76), (9, 46))),
            (
                power_path(6),
                11,
                291,
                ((3, 0), (4, 3), (5, 6), (6, 10), (7, 15), (8, 21), (9, 54), (10, 115), (11, 67)),
            ),
            (q1(5).graph, 6, 125, ((3, 0), (4, 0), (5, 90), (6, 35))),
            (q2(8).graph, 9, 239, ((3, 0), (4, 14), (5, 20), (6, 27), (7, 35), (8, 92), (9, 51))),
            (g_star(wheel(5)).graph, 4, 69, ((3, 15), (4, 54))),
        ],
        ids=["h_p4", "h_p5", "prop1_4", "power_path5", "power_path6", "q1_5", "q2_8", "g_star_W5"],
    )
    def test_pinned_node_counts(self, g, value, nodes, per_k):
        # the plan order's node cost: a change to the order shows here
        res = chi_exact(g, "rlid")
        assert (res.status, res.value, res.stats.nodes, res.stats.per_k) == ("exact", value, nodes, per_k)
        assert is_rlid(g, res.witness)


class TestDeepen:
    """One search plan deepened over the given palette sizes: exact at
    the first k with a coloring, else infeasible or a budget stop."""

    def test_every_k_refuted_is_infeasible(self):
        budget = Budget()
        res = deepen(cycle(5), "rlid", range(3, 4), budget)
        assert (res.status, res.value, res.witness) == ("infeasible", None, None)
        assert res.stats.per_k == ((3, budget.nodes),)
        assert (res.stats.lower_by, res.stats.upper_by) == ("search-infeasible", None)

    def test_first_k_with_a_coloring_is_exact(self):
        res = deepen(cycle(5), "rlid", range(3, 6), Budget())
        assert (res.status, res.value) == ("exact", 4)
        assert (res.stats.lower_by, res.stats.upper_by) == ("search-infeasible", "search-witness")
        assert [k for k, _ in res.stats.per_k] == [3, 4]
        assert is_rlid(cycle(5), res.witness)

    @pytest.mark.parametrize("cap, last", [(2, 3), (25, 4)])
    def test_budget_stop_is_the_last_row(self, cap, last):
        budget = Budget(cap)
        res = deepen(cycle(5), "rlid", range(3, 6), budget)
        assert (res.status, res.value, res.witness) == ("budget-exceeded", None, None)
        assert res.stats.per_k[-1][0] == last
        assert res.stats.nodes == budget.nodes == cap + 1 == sum(n for _, n in res.stats.per_k)


class TestCheapBounds:
    """The bounds that need no search: lowers (value, provenance) and
    uppers (value, provenance, witness)."""

    def _tags(self, g, *args):
        lowers, uppers = cheap_bounds(g, *args)
        for value, _, witness in uppers:
            assert verify_rlid(g, witness).valid and len(witness.used_colors()) == value
        return lowers, [(v, prov) for v, prov, _ in uppers]

    def test_rlid_rules(self):
        p4_and_k2 = build_graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        assert self._tags(p4_and_k2) == (
            [(3, "no-two-rule")], [(6, "order-n"), (3, "bipartite-3")])
        assert self._tags(cycle(5)) == ([(3, "no-two-rule")], [(5, "order-n")])
        assert self._tags(blow_up(complete(2), 2)) == (
            [(1, "one-color-rule")], [(4, "order-n"), (1, "one-color-rule")])

    @pytest.mark.parametrize("parameter", ["lid", "id", "chromatic", "proper"])
    def test_other_parameters_get_the_trivial_bounds(self, parameter):
        assert self._tags(cycle(5), parameter) == ([(1, "nonempty")], [(5, "order-n")])

    def test_search_two_drops_the_rlid_rules(self):
        assert self._tags(path(4), "rlid", True) == ([(1, "nonempty")], [(4, "order-n")])

    def test_empty_graph(self):
        assert self._tags(build_graph(0, [])) == ([(0, "order-n")], [(0, "order-n")])


class TestBipartiteClosure:
    """chi_exact closes rlid inputs whose component twin quotients are
    each one vertex or bipartite of order >= 3 with the level coloring
    and builds no search plan."""

    def test_every_connected_bipartite_graph_up_to_order_six(self):
        checked = 0
        for n in range(3, 7):
            for edges in all_labeled_graphs(n):
                if not (brute_connected(n, edges) and brute_bipartite(n, edges)):
                    continue
                g = build_graph(n, edges)
                res = chi_exact(g, "rlid")
                assert (res.value, res.status) == (3, "exact"), edges
                assert verify_rlid(g, res.witness).valid
                assert res.witness.used_colors() == {1, 2, 3}
                stats = res.stats
                assert (stats.nodes, stats.per_k) == (0, ())
                # on P3 the order ties with 3 and is listed first: the rainbow
                full = n == 3
                upper_by = "order-n" if full else "bipartite-3"
                assert (stats.lower_by, stats.upper_by) == ("no-two-rule", upper_by)
                if full:
                    assert res.witness.colors == (1, 2, 3)
                else:
                    assert res.witness == bipartite_three_coloring(g)[0]
                searched = chi_exact(g, "rlid", search_two=True)
                assert searched.value == 3, edges
                assert searched.stats.lower_by == "search-infeasible"
                assert searched.stats.upper_by == ("order-n" if full else "search-witness")
                assert [k for k, _ in searched.stats.per_k] == ([1, 2] if full else [1, 2, 3])
                checked += 1
        assert checked == 3248

    def test_every_connected_graph_with_a_bipartite_twin_quotient_up_to_order_six(self):
        checked = 0
        for n in range(3, 7):
            for edges in all_labeled_graphs(n):
                if brute_twin_free(n, edges) or not brute_connected(n, edges):
                    continue
                order, quotient_edges = brute_quotient(n, edges)
                if order < 3 or not brute_bipartite(order, quotient_edges):
                    continue
                g = build_graph(n, edges)
                res = chi_exact(g, "rlid")
                assert (res.value, res.status) == (3, "exact"), edges
                colors = res.witness.colors
                assert brute_is_rlid(n, edges, colors), edges
                assert set(colors) == {1, 2, 3}
                closed = closed_neighborhoods(n, edges)
                for u, v in combinations(range(n), 2):
                    if closed[u] == closed[v]:
                        assert colors[u] == colors[v], edges
                stats = res.stats
                assert (stats.nodes, stats.per_k) == (0, ())
                assert (stats.lower_by, stats.upper_by) == ("no-two-rule", "bipartite-3")
                searched = chi_exact(g, "rlid", search_two=True)
                assert searched.value == 3, edges
                assert searched.stats.lower_by == "search-infeasible"
                assert searched.stats.upper_by == "search-witness"
                checked += 1
        assert checked == 4713

    @pytest.mark.parametrize(
        "g", [blow_up(grid(5, 5), 2), blow_up(cycle(20), 3)], ids=["5x5 grid x2", "C20 x3"]
    )
    def test_clique_blow_ups_of_bipartite_graphs_close_under_a_one_node_budget(self, g):
        res = chi_exact(g, "rlid", Budget(1))
        assert (res.value, res.status, res.stats.nodes) == (3, "exact", 0)
        assert (res.stats.lower_by, res.stats.upper_by) == ("no-two-rule", "bipartite-3")
        assert is_rlid(g, res.witness)
        for cls in quotient(g)[1].classes:
            assert len({res.witness[v] for v in cls}) == 1

    def test_disconnected_input_with_bipartite_twin_quotients_closes_too(self):
        paw = [(0, 1), (1, 2), (0, 2), (2, 3)]
        two_paws = build_graph(8, paw + [(u + 4, v + 4) for u, v in paw])
        res = chi_exact(two_paws, "rlid")
        assert (res.value, res.status, res.stats.nodes, res.stats.per_k) == (3, "exact", 0, ())
        assert (res.stats.lower_by, res.stats.upper_by) == ("no-two-rule", "bipartite-3")
        assert is_rlid(two_paws, res.witness)

    @pytest.mark.parametrize(
        "g",
        [
            build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
            blow_up(grid(5, 5), 2),
            blow_up(cycle(20), 3),
        ],
        ids=["paw", "5x5 grid x2", "C20 x3"],
    )
    def test_bipartite_three_coloring_keeps_its_bipartite_contract(self, g):
        assert chi_exact(g, "rlid").stats.upper_by == "bipartite-3"
        with pytest.raises(GraphError, match="graph is not bipartite"):
            bipartite_three_coloring(g)

    def test_disconnected_bipartite_input_closes_too(self):
        two_p3_and_k1 = build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5)])
        res = chi_exact(two_p3_and_k1, "rlid")
        assert (res.value, res.status, res.stats.nodes, res.stats.per_k) == (3, "exact", 0, ())
        assert (res.stats.lower_by, res.stats.upper_by) == ("no-two-rule", "bipartite-3")
        assert res.witness.colors == (1, 2, 3, 1, 2, 3, 1)

    @pytest.mark.parametrize(
        "g, lower_by, upper_by, ks",
        [
            (cycle(5), "search-infeasible", "search-witness", [3, 4]),
            (h_p(2).graph, "no-two-rule", "search-witness", [3]),
            (complete(3), "one-color-rule", "one-color-rule", []),
            (star_graph(1), "one-color-rule", "one-color-rule", []),
            (complete(1), "one-color-rule", "order-n", []),
        ],
        ids=["C5", "h_p2", "K3", "K2", "K1"],
    )
    def test_other_inputs_name_the_bounds_that_met(self, g, lower_by, upper_by, ks):
        res = chi_exact(g, "rlid")
        assert (res.stats.lower_by, res.stats.upper_by) == (lower_by, upper_by)
        assert [k for k, _ in res.stats.per_k] == ks

    @pytest.mark.parametrize("n", [1200, 10_000])
    def test_shuffled_long_path_closes_under_a_one_node_budget(self, n):
        label = list(range(n))
        random.Random(n).shuffle(label)
        g = build_graph(n, [(label[v], label[v + 1]) for v in range(n - 1)])
        res = chi_exact(g, "rlid", Budget(1))
        assert (res.value, res.status, res.stats.nodes) == (3, "exact", 0)
        assert (res.stats.lower_by, res.stats.upper_by) == ("no-two-rule", "bipartite-3")
        assert is_rlid(g, res.witness)
        # the star-centre test reads vertex 0's open neighborhood mask,
        # so the closed-neighborhood masks are never built
        with pytest.raises(AttributeError):
            Graph.closed.__get__(g)

    def test_the_search_still_walks_a_long_path(self):
        res = chi_exact(path(1200), "rlid", search_two=True)
        assert (res.value, res.status) == (3, "exact")
        assert (res.stats.lower_by, res.stats.upper_by) == ("search-infeasible", "search-witness")
        assert is_rlid(path(1200), res.witness)


class TestGammaId:
    def test_p4_value_and_witness(self):
        res = gamma_id_exact(path(4))
        assert res.value == 3
        assert res.parameter == "gamma-id"
        assert len(res.witness) == 3
        assert is_identifying_code(path(4), res.witness)

    def test_p4_alternative_code_is_also_optimal(self):
        # the inner triple is a valid optimum too; ties break by index
        assert is_identifying_code(path(4), frozenset({1, 2, 3}))

    def test_k2_twins_error(self):
        with pytest.raises(GraphError, match="twin"):
            gamma_id_exact(complete(2))

    def test_c4(self):
        assert gamma_id_exact(cycle(4)).value == 3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_oracle_on_connected_twin_free_graphs(self, n):
        checked = 0
        for edges in all_labeled_graphs(n):
            if not (brute_connected(n, edges) and brute_twin_free(n, edges)):
                continue
            g = build_graph(n, edges)
            res = gamma_id_exact(g)
            assert res.value == brute_gamma_id(n, edges), edges
            assert len(res.witness) == res.value
            assert is_identifying_code(g, res.witness)
            checked += 1
        assert checked == {1: 1, 2: 0, 3: 3, 4: 19, 5: 462, 6: 18268}[n]

    def test_matches_oracle_on_random_twin_free_graphs(self):
        rng = random.Random(6)
        checked = 0
        while checked < 40:
            n = rng.randint(7, 10)
            p = rng.uniform(0.15, 0.7)
            edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
            if not brute_twin_free(n, edges):
                continue
            g = build_graph(n, edges)
            res = gamma_id_exact(g)
            assert res.value == brute_gamma_id(n, edges), (n, edges)
            assert is_identifying_code(g, res.witness)
            checked += 1

    def test_long_path_is_half_plus_one(self):
        # gamma_id(P_n) = ceil((n + 1) / 2) for paths of order >= 3
        res = gamma_id_exact(path(100))
        assert (res.status, res.value) == ("exact", 51)
        assert is_identifying_code(path(100), res.witness)

    @pytest.mark.parametrize(
        "name,g,value,nodes",
        [
            ("P100", path(100), 51, 202),
            ("C10", cycle(10), 5, 23),
            ("g*(W5)", g_star(wheel(5)).graph, 16, 3193),
        ],
    )
    def test_pinned_node_counts(self, name, g, value, nodes):
        res = gamma_id_exact(g)
        assert (res.status, res.value, res.stats.nodes) == ("exact", value, nodes), name

    def test_search_matches_the_reference_node_for_node(self):
        """The fused search returns the reference's mask after exactly as
        many nodes, on small graphs and on seeded random ones, with and
        without a budget stop."""

        def run(search, sets, n, greedy, budget):
            spent = 0

            def spend():
                nonlocal spent
                spent += 1
                if spent > budget:
                    raise BudgetExceeded("stop")

            try:
                found = search(sets, n, n.bit_length(), greedy, spend)
            except BudgetExceeded:
                found = None
            return found, spent

        graphs = [
            build_graph(n, edges)
            for n in range(1, 6)
            for edges in all_labeled_graphs(n)
            if brute_connected(n, edges) and brute_twin_free(n, edges)
        ]
        rng = random.Random(19)
        while len(graphs) < 485 + 40:
            n = rng.randint(7, 30)
            p = rng.uniform(0.05, 0.6)
            g = build_graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
            if is_twin_free(g):
                graphs.append(g)
        stops = 0
        for g in graphs:
            sets, containing, live = _code_constraints(g, lambda: None)
            kept = [sets[i] for i in members(live)]
            greedy = _greedy_code(containing, live)
            for budget in (300, 20000):
                got = run(_min_hitting_set, kept, g.n, greedy, budget)
                assert got == run(reference_min_hitting_set, kept, g.n, greedy, budget), g.adj
                stops += got[0] is None
        assert stops > 0

    def test_greedy_code_matches_the_max_scan(self):
        """The lazy heap picks what a ``max`` over all vertices picks,
        smallest index first on ties: on every twin-free labeled graph of
        order <= 6, on odd cycles, and from seeded partial unmet masks."""
        cases = []
        for n in range(1, 7):
            for g in enumerate_graphs(n, is_twin_free):
                sets, containing, live = _code_constraints(g, lambda: None)
                cases.append((containing, live))
        rng = random.Random(23)
        for g in (cycle(301), cycle(302), path(200), wheel(40)):
            sets, containing, live = _code_constraints(g, lambda: None)
            cases.append((containing, live))
            for _ in range(5):
                cases.append((containing, rng.getrandbits(len(sets)) & live))
        for containing, unmet in cases:
            assert _greedy_code(containing, unmet) == reference_greedy_code(containing, unmet)

    def test_tiny_budget_is_budget_exceeded(self):
        budget = Budget(max_nodes=50)
        res = gamma_id_exact(path(100), budget)
        assert (res.status, res.value, res.witness) == ("budget-exceeded", None, None)
        # one node per pair constraint: the 197 pairs at distance <= 2
        # stop at the budget instead of all being built first
        assert budget.nodes == 51


class TestEnumerate:
    def test_three_vertex_connected_count(self):
        assert sum(1 for _ in enumerate_graphs(3, lambda g: g.is_connected())) == 4

    def test_two_vertex_total(self):
        assert sum(1 for _ in enumerate_graphs(2)) == 2

    def test_connected_bipartite_count_matches_oracle(self):
        from rlid import bipartition

        from _oracles import all_labeled_graphs

        want = sum(
            1
            for edges in all_labeled_graphs(5)
            if brute_connected(5, edges) and brute_bipartite(5, edges)
        )
        got = sum(
            1
            for _ in enumerate_graphs(
                5, lambda g: g.is_connected() and bipartition(g) is not None
            )
        )
        assert got == want

    def test_order_cap(self):
        with pytest.raises(GraphError):
            next(enumerate_graphs(8))

    def test_up_to_iso_reduces_three_vertex_connected(self):
        reps = list(enumerate_graphs(3, lambda g: g.is_connected(), up_to_iso=True))
        assert len(reps) == 2  # the path and the triangle

    @pytest.mark.parametrize("n", range(7))
    def test_stream_follows_the_edge_mask_numbering(self, n):
        # every graph is kept before any is compared, so a flip made for
        # a later mask would show in an earlier graph
        graphs = list(enumerate_graphs(n))
        assert len(graphs) == 1 << n * (n - 1) // 2
        assert len({id(g) for g in graphs}) == len(graphs)
        for mask, g in enumerate(graphs):
            want = graph_from_edge_mask(n, mask)
            assert (g.n, g.adj, g.closed) == (want.n, want.adj, want.closed), mask
            assert edge_mask(g) == mask

    def test_order_seven_prefix(self):
        graphs = list(islice(enumerate_graphs(7), 1 << 16))
        assert [g.adj for g in graphs] == [graph_from_edge_mask(7, k).adj for k in range(1 << 16)]

    def test_filter_sees_the_stream_in_mask_order(self):
        keep = lambda g: g.is_connected() and is_twin_free(g)
        for n in range(7):
            stream = (graph_from_edge_mask(n, mask) for mask in range(1 << n * (n - 1) // 2))
            want = [h.adj for h in stream if keep(h)]
            assert [g.adj for g in enumerate_graphs(n, keep)] == want

    @pytest.mark.parametrize("n", range(6))
    def test_up_to_iso_keeps_the_first_of_each_class(self, n):
        reps = []
        for mask in range(1 << n * (n - 1) // 2):
            h = graph_from_edge_mask(n, mask)
            if brute_connected(n, h.edges()) and not any(is_isomorphic(h, r) for r in reps):
                reps.append(h)
        got = list(enumerate_graphs(n, Graph.is_connected, up_to_iso=True))
        assert [g.adj for g in got] == [r.adj for r in reps]
        assert len(got) == [1, 1, 1, 2, 6, 21][n]  # OEIS A001349


class TestRandomSplit:
    def test_deterministic_for_fixed_seed(self):
        g1, p1 = random_split_graph(1, 3, 2, 0.5)
        g2, p2 = random_split_graph(1, 3, 2, 0.5)
        assert g1.adj == g2.adj
        assert (p1.clique, p1.stable) == (p2.clique, p2.stable)

    def test_isolated_stable_vertex_rewired(self):
        g, part = random_split_graph(9, 1, 1, 0)
        assert g.n == 2
        assert g.edge_count == 1

    def test_sides_validate(self):
        g, part = random_split_graph(5, 4, 3, 0.4)
        for u in part.clique:
            for v in part.clique:
                if u != v:
                    assert g.has_edge(u, v)
        for u in part.stable:
            for v in part.stable:
                if u != v:
                    assert not g.has_edge(u, v)

    def test_twin_free_flag(self):
        from rlid import is_twin_free

        g, _ = random_split_graph(3, 4, 4, 0.5, twin_free=True)
        assert is_twin_free(g)

    def test_size_preconditions(self):
        with pytest.raises(GraphError):
            random_split_graph(1, 0, 3, 0.5)
        with pytest.raises(GraphError):
            random_split_graph(1, 3, 0, 0.5)


def test_proper_decider_matches_known_chromatic_numbers():
    assert decide_k_proper(cycle(5), 2) is None
    assert decide_k_proper(cycle(5), 3) is not None
    assert decide_k_proper(complete(4), 3) is None
