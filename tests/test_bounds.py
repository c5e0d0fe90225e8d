"""Certified bounds and the full-palette characterization."""

import pytest

from rlid import bounds as bounds_mod
from rlid import solvers as solvers_mod
from rlid import (
    Budget,
    Coloring,
    GraphError,
    bipartition,
    bounds_report,
    build_graph,
    characterize_full_palette,
    chi_exact,
    gamma_id_exact,
    is_rlid,
    is_twin_free,
    join,
    lower_bound_log_omega,
    max_clique_size,
    quotient,
    split_lower_bound,
    verify_rlid,
)
from rlid.families import find_split_partition, g_star, h_p, power_path, prop1_graph, q1, q2
from rlid.solvers import enumerate_graphs

from _helpers import blow_up, complete, cycle, path, star_graph, threshold_graph, wheel
from _oracles import (
    all_labeled_graphs,
    brute_is_clique_union,
    brute_is_rlid,
    brute_twin_free,
    reference_full_palette,
)


class TestLogOmegaLowerBound:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_same_value_and_nodes_as_the_clique_of_the_quotient(self, n):
        # the clique runs on the twin representatives in place of the
        # rebuilt quotient, which is induced on them in the same order
        for edges in all_labeled_graphs(n):
            g = build_graph(n, edges)
            here, there = Budget(), Budget()
            omega = max_clique_size(quotient(g)[0], there)
            assert lower_bound_log_omega(g, here) == (omega - 1).bit_length() + 1, edges
            assert here.nodes == there.nodes, edges

    def test_h2(self):
        assert lower_bound_log_omega(h_p(2).graph) == 3

    @pytest.mark.parametrize("n", range(1, 6))
    def test_complete_graphs_collapse_to_one(self, n):
        assert lower_bound_log_omega(complete(n)) == 1

    def test_quotient_clique_five(self):
        # K_5 with a pendant on every vertex is twin-free, quotient = itself
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(i, i + 5) for i in range(5)]
        g = build_graph(10, edges)
        assert lower_bound_log_omega(g) == 4


class TestBoundsReport:
    def test_bipartite_quotient_closes_a_path_with_a_twin(self):
        # P200 plus a closed twin of vertex 5: the quotient, P200, is
        # bipartite, so the cheap bounds meet and nothing is searched
        edges = [(i, i + 1) for i in range(199)] + [(200, 4), (200, 5), (200, 6)]
        g = build_graph(201, edges)
        budget = Budget(10**6)
        r = bounds_report(g, budget=budget)
        assert r.lower_bounds == ((3, "no-two-rule"), (2, "log-omega-quotient"))
        assert r.upper_bounds == ((201, "order-n"), (3, "bipartite-3"))
        assert r.exact == 3 == chi_exact(g, "rlid").value
        assert r.notes == ()
        # the search step charges the plan build before it searches
        assert budget.nodes < solvers_mod.plan_cost(g)

    def test_tripled_c8_closes_before_the_search_step(self):
        g = blow_up(cycle(8), 3)
        budget = Budget(10**6)
        r = bounds_report(g, budget=budget)
        assert r.upper_bounds == ((24, "order-n"), (3, "bipartite-3"))
        assert (r.exact, r.notes) == (3, ())
        assert budget.nodes < solvers_mod.plan_cost(g)

    def test_quotient_step_bounds_a_clique_blow_up_of_c5(self):
        # every vertex of C5 a K40: the search step is skipped on 200
        # vertices, and the report on the quotient, C5, gives 4
        g = blow_up(cycle(5), 40)
        r = bounds_report(g)
        assert r.upper_bounds == ((200, "order-n"), (4, "quotient"))
        assert (r.best_lower, r.best_upper, r.exact) == (3, 4, None)
        assert r.notes == (
            "search skipped: budget exceeded",
            "quotient: gamma-id-plus-1 not run: cannot tighten 4..4",
        )

    def test_p4_exact_three(self):
        r = bounds_report(path(4))
        assert (3, "no-two-rule") in r.lower_bounds
        assert (3, "bipartite-3") in r.upper_bounds
        assert r.exact == 3

    def test_q2_split_bounds_present(self):
        r = bounds_report(q2(3).graph)
        assert (5, "split-omega-plus-2") in r.upper_bounds
        assert (3, "log-omega-quotient") in r.lower_bounds
        # no rlid 3-coloring exists, so the search certifies 4
        assert (4, "search-infeasible") in r.lower_bounds
        assert r.best_lower == 4
        assert r.best_lower <= chi_exact(q2(3).graph, "rlid").value == 4

    def test_k5_exact_one(self):
        r = bounds_report(complete(5))
        assert (1, "one-color-rule") in r.lower_bounds
        assert r.exact == 1

    def test_order_bound_always_present(self):
        r = bounds_report(cycle(5))
        assert (5, "order-n") in r.upper_bounds

    def test_long_path_skips_the_code_search(self, monkeypatch):
        monkeypatch.setattr(bounds_mod, "gamma_id_exact", None)
        r = bounds_report(path(100))
        assert r.exact == 3
        assert r.notes == ("gamma-id-plus-1 not run: cannot tighten 3..3",)

    def test_odd_cycle_gets_the_code_bound(self):
        # the rlid search stops at its budget on C51 and leaves the gap
        # 3..51, which only the code bound narrows
        r = bounds_report(cycle(51))
        assert "search at 3 skipped: budget exceeded" in r.notes
        assert (28, "gamma-id-plus-1") in r.upper_bounds
        assert (r.best_lower, r.best_upper) == (3, 28)

    def test_gadget_of_w5_closes_in_the_search(self):
        r = bounds_report(g_star(wheel(5)).graph)
        assert (4, "search-infeasible") in r.lower_bounds
        assert (4, "search-witness") in r.upper_bounds
        assert r.exact == 4

    def test_search_step_under_small_budgets(self, monkeypatch):
        # As the budget grows from below the plan cost, the step on
        # g*(W5) goes from skipped, to a stop in the search at 3, to
        # lower 4 with a stop in the search at 4, to closed; every
        # budget stop leaves a note and never a false bound.
        g = g_star(wheel(5)).graph
        cost = solvers_mod.plan_cost(g)
        steps = []
        for nodes in range(cost - 10, cost + 200, 2):
            monkeypatch.setattr(bounds_mod, "GAMMA_ID_NODE_BUDGET", nodes)
            r = bounds_report(g)
            assert all(v <= 4 for v, _ in r.lower_bounds)
            assert all(v >= 4 for v, _ in r.upper_bounds)
            if nodes < cost:
                assert "search skipped: budget exceeded" in r.notes
            elif r.exact is None:
                assert "search at %d skipped: budget exceeded" % r.best_lower in r.notes
            step = (r.best_lower, r.exact is not None)
            if not steps or steps[-1] != step:
                steps.append(step)
        assert steps == [(3, False), (4, False), (4, True)]

    @pytest.mark.parametrize(
        "extra, stopped_at, lower, nodes", [(20, 3, 3, 824), (50, 4, 4, 854)]
    )
    def test_search_step_stopped_by_the_caller_budget(self, extra, stopped_at, lower, nodes):
        # the plan's cost is charged before the search step, whose node
        # count goes on from there; pinned from the search that spent its
        # nodes one Budget.spend() call at a time
        g = g_star(wheel(5)).graph
        budget = Budget(solvers_mod.plan_cost(g) + extra)
        r = bounds_report(g, budget=budget)
        assert r.notes == (
            "search at %d skipped: budget exceeded" % stopped_at,
            "gamma-id-plus-1 skipped: budget exceeded",
        )
        assert (r.best_lower, r.best_upper) == (lower, 32)
        assert budget.nodes == nodes

    def test_caller_budget_caps_the_search_steps(self):
        g = g_star(wheel(5)).graph
        cost = solvers_mod.plan_cost(g)
        roomy = Budget(10**6)
        assert bounds_report(g, budget=roomy).exact == 4
        assert roomy.nodes > cost  # the plan and the search are charged
        # below the plan cost: no plan, and the code search gets only
        # what is left, so the caller's budget is overrun by at most the
        # one node that raised
        tight = Budget(cost - 1)
        r = bounds_report(g, budget=tight)
        assert "search skipped: budget exceeded" in r.notes
        assert "gamma-id-plus-1 skipped: budget exceeded" in r.notes
        assert tight.nodes <= tight.max_nodes + 1

    def test_prop1_closes_without_the_code_search(self, monkeypatch):
        calls = []

        def recording(g, budget=None):
            calls.append(g)
            return gamma_id_exact(g, budget)

        monkeypatch.setattr(bounds_mod, "gamma_id_exact", recording)
        r = bounds_report(prop1_graph(4).graph)
        assert (4, "search-infeasible") in r.lower_bounds
        assert (4, "search-witness") in r.upper_bounds
        assert r.exact == 4
        assert calls == []

    def test_code_search_runs_only_when_it_can_tighten(self, monkeypatch):
        calls = []

        def recording(g, budget=None):
            calls.append(g)
            return gamma_id_exact(g, budget)

        monkeypatch.setattr(bounds_mod, "gamma_id_exact", recording)
        ran = 0
        # every report of order <= 5 closes in the rlid search; on the
        # odd cycles C51 and C101 that search stops at its budget
        graphs = [
            g for n in range(1, 6)
            for g in enumerate_graphs(n, lambda g: g.is_connected() and is_twin_free(g))
        ]
        for g in graphs + [cycle(51), cycle(101)]:
            calls.clear()
            r = bounds_report(g)
            cheap = [v for v, prov in r.upper_bounds if prov != "gamma-id-plus-1"]
            can_tighten = r.best_lower < min(cheap) and g.n.bit_length() + 1 < min(cheap)
            assert bool(calls) == can_tighten
            ran += can_tighten
            if not can_tighten:
                note = "gamma-id-plus-1 not run: cannot tighten %d..%d"
                assert note % (r.best_lower, min(cheap)) in r.notes
        assert ran > 0

    def test_threshold_graph_with_a_deep_clique(self):
        # the clique search must not recurse once per clique vertex
        r = bounds_report(threshold_graph(1050), budget=Budget(20_000))
        assert r.best_lower <= r.best_upper == 1052

    def test_threshold_graph_report_skips_the_quotient_rebuild(self):
        # twin-free, so the quotient is the graph itself; the report is
        # the one computed through a rebuilt quotient
        r = bounds_report(threshold_graph(1050), budget=Budget(20_000))
        assert r.lower_bounds == ((3, "no-two-rule"), (12, "log-omega-quotient"))
        assert r.upper_bounds == ((2099, "order-n"), (1052, "split-omega-plus-2"))
        assert (r.best_lower, r.best_upper, r.exact) == (12, 1052, None)
        assert r.notes == (
            "search skipped: budget exceeded",
            "gamma-id-plus-1 skipped: budget exceeded",
        )

    @pytest.mark.parametrize(
        "g",
        [
            threshold_graph(1050),  # over 500k edges
            wheel(5000),  # 10k edges, but the hub's pairs cover every vertex
            build_graph(305, [(i, (i + 1) % 5) for i in range(5)]),  # C5 and 300 isolated
        ],
        ids=["threshold_1050", "wheel_5000", "c5_isolated_300"],
    )
    def test_search_step_skips_a_plan_over_its_budget(self, monkeypatch, g):
        def refuse(*args):
            raise AssertionError("search plan built")

        monkeypatch.setattr(solvers_mod, "_SearchPlan", refuse)
        assert solvers_mod.plan_cost(g) > bounds_mod.GAMMA_ID_NODE_BUDGET
        r = bounds_report(g)
        assert "search skipped: budget exceeded" in r.notes
        assert r.best_lower < r.best_upper

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_soundness_on_all_small_connected_graphs(self, n):
        for g in enumerate_graphs(n, lambda g: g.is_connected()):
            r = bounds_report(g)
            truth = chi_exact(g, "rlid", search_two=True).value
            assert r.best_lower <= truth <= r.best_upper

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_listed_bound_is_sound(self, n):
        # every labeled graph, the disconnected ones included; the
        # bipartite-3 bound also fires on graphs that are not bipartite
        # but whose twin quotient is
        quotient_only = 0
        for g in enumerate_graphs(n):
            r = bounds_report(g)
            truth = chi_exact(g, "rlid", search_two=True).value
            for value, prov in r.lower_bounds:
                assert value <= truth, (prov, value, truth, list(g.edges()))
            for value, prov in r.upper_bounds:
                assert value >= truth, (prov, value, truth, list(g.edges()))
            if (3, "bipartite-3") in r.upper_bounds and bipartition(g) is None:
                quotient_only += 1
        assert (quotient_only > 0) == (n >= 4)

    @pytest.mark.parametrize(
        "g",
        [blow_up(cycle(8), 3), blow_up(path(4), 2), blow_up(star_graph(3), 3)],
        ids=["C8 x3", "P4 x2", "K1,3 x3"],
    )
    def test_listed_bounds_of_blow_ups_are_sound(self, g):
        # the blow-ups of a bipartite graph and their disjoint union
        two = build_graph(2 * g.n, g.edges() + [(u + g.n, v + g.n) for u, v in g.edges()])
        for h in (g, two):
            r = bounds_report(h)
            truth = chi_exact(h, "rlid", search_two=True).value
            assert (3, "bipartite-3") in r.upper_bounds
            assert r.best_lower <= truth <= r.best_upper == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cheap_rules_follow_the_twin_classes(self, n):
        # every labeled graph, the disconnected ones included
        for edges in all_labeled_graphs(n):
            r = bounds_report(build_graph(n, edges))
            union = brute_is_clique_union(n, edges)
            assert ((1, "one-color-rule") in r.lower_bounds) == union, edges
            assert ((1, "one-color-rule") in r.upper_bounds) == union, edges
            assert ((3, "no-two-rule") in r.lower_bounds) != union, edges
            # gamma-id + 1 is tried, or noted as not run, on twin-free graphs only
            gamma_id = any(p == "gamma-id-plus-1" for _, p in r.upper_bounds) or any(
                note.startswith("gamma-id-plus-1") for note in r.notes)
            assert gamma_id == brute_twin_free(n, edges), edges


def _pipeline_graphs():
    for n in range(6):
        for edges in all_labeled_graphs(n):
            yield build_graph(n, edges)
    yield h_p(4).graph
    yield prop1_graph(4).graph


class TestOnePipeline:
    """chi_exact and bounds_report start from the same cheap bounds."""

    def test_solve_and_report_agree_on_every_small_graph(self):
        # every labeled graph of order <= 5, connected or not, and two
        # families with twins and a search
        closed_without_search = 0
        for g in _pipeline_graphs():
            res = chi_exact(g, "rlid")
            value = res.value
            assert value == chi_exact(g, "rlid", search_two=True).value, g.edges()
            r = bounds_report(g)
            assert r.best_lower <= value <= r.best_upper, g.edges()
            if not res.stats.lower_by.startswith("search-"):
                assert (value, res.stats.lower_by) in r.lower_bounds, g.edges()
            if not res.stats.upper_by.startswith("search-"):
                assert (value, res.stats.upper_by) in r.upper_bounds, g.edges()
            assert is_rlid(g, res.witness), g.edges()
            closed_without_search += not res.stats.per_k
        # the 76 clique unions and the 757 other graphs whose component
        # quotients are one vertex or bipartite
        assert closed_without_search == 76 + 757


class TestFullPaletteCharacterization:
    def test_p3_is_extremal(self):
        assert characterize_full_palette(path(3))
        assert chi_exact(path(3), "rlid").value == 3

    def test_fan_is_extremal(self):
        fan = join(complete(1), power_path(2))
        assert characterize_full_palette(fan)
        assert chi_exact(fan, "rlid").value == 5

    def test_c5_is_not(self):
        assert not characterize_full_palette(cycle(5))
        assert chi_exact(cycle(5), "rlid").value < 5

    def test_rejects_twins(self):
        with pytest.raises(GraphError):
            characterize_full_palette(complete(3))

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            characterize_full_palette(build_graph(4, [(0, 1), (2, 3)]))

    def test_power_path_factor_deeper_than_the_recursion_limit(self):
        # the 1,020-vertex factor's complement is checked as a half graph
        assert characterize_full_palette(join(complete(1), power_path(510)))

    def test_matches_the_isomorphism_reference_on_the_catalog(self):
        # every connected twin-free labelled graph of order <= 6
        count = extremal = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n, lambda g: g.is_connected() and is_twin_free(g)):
                want = reference_full_palette(g)
                assert characterize_full_palette(g) == want, g.edges()
                count += 1
                extremal += want
        assert (count, extremal) == (18753, 79)

    def test_degrees_one_to_k_without_nesting_is_not_a_power_path(self):
        # the factor's complement has sides a1..a4 = 1..4 and b1..b4 =
        # 5..8 with a-degrees 1, 2, 3, 4, but N(a2) = {b2, b4} is not
        # inside N(a3) = {b1, b3, b4}; the graph is still twin-free
        half = {(4, 5), (4, 6), (4, 7), (4, 8), (1, 7), (2, 6), (2, 8), (3, 5), (3, 7), (3, 8)}
        pairs = {(u, v) for u in range(1, 9) for v in range(u + 1, 9)}
        g = build_graph(9, [(0, v) for v in range(1, 9)] + sorted(pairs - half))
        assert g.is_connected() and is_twin_free(g)
        assert not reference_full_palette(g)
        assert not characterize_full_palette(g)

    @pytest.mark.parametrize(
        "ks",
        [(2,), (5,), (9,), (1, 2), (1, 4), (2, 3), (3, 5), (1, 2, 3), (2, 2, 4)],
        ids=lambda ks: "k" + "-".join(map(str, ks)),
    )
    def test_matches_the_isomorphism_reference_near_power_path_joins(self, ks):
        # K1 joined with power paths (k = 1 is the pair of isolated
        # vertices), then every graph one edge flip away
        g = complete(1)
        for k in ks:
            g = join(g, power_path(k) if k > 1 else build_graph(2, []))
        assert characterize_full_palette(g) and reference_full_palette(g)
        edges = set(g.edges())
        checked = 0
        for u in range(g.n):
            for v in range(u + 1, g.n):
                h = build_graph(g.n, edges ^ {(u, v)})
                if h.is_connected() and is_twin_free(h):
                    assert characterize_full_palette(h) == reference_full_palette(h), (u, v)
                    checked += 1
        assert checked


# A connected twin-free split graph with clique {0..4} and chi_rlid = 4,
# below the ceil(log2 omega) + 2 = 5 that the split bound once claimed.
SPLIT_OMEGA5_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 8), (0, 10), (1, 2), (1, 3),
    (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (2, 3), (2, 4),
    (2, 5), (2, 8), (2, 9), (3, 4), (4, 7), (4, 8), (4, 9), (4, 10),
]
SPLIT_OMEGA5_WITNESS = [1, 1, 1, 1, 1, 4, 4, 1, 1, 3, 2]


class TestSplitLowerBound:
    @pytest.mark.parametrize(
        "inst,want",
        [(q1(3), 3), (q2(3), 3), (q2(4), 3)],
        ids=["q1-3", "q2-3", "q2-4"],
    )
    def test_values(self, inst, want):
        part = find_split_partition(inst.graph)
        assert part is not None
        assert split_lower_bound(inst.graph, part) == want
        assert want <= chi_exact(inst.graph, "rlid").value

    def test_omega_five_graph_with_four_colors(self):
        g = build_graph(11, SPLIT_OMEGA5_EDGES)
        part = find_split_partition(g)
        assert part is not None and part.clique == frozenset(range(5))
        assert verify_rlid(g, Coloring(SPLIT_OMEGA5_WITNESS)).valid
        assert brute_is_rlid(11, SPLIT_OMEGA5_EDGES, SPLIT_OMEGA5_WITNESS)
        assert chi_exact(g, "rlid").value == 4
        assert split_lower_bound(g, part) <= 4
        assert bounds_report(g).best_lower <= 4

    @pytest.mark.parametrize("inst", [q2(8), q1(5)], ids=["q2-8", "q1-5"])
    def test_split_upper_bound_above_order_twelve(self, inst):
        omega = len(find_split_partition(inst.graph).clique)
        assert (omega + 2, "split-omega-plus-2") in bounds_report(inst.graph).upper_bounds

    def test_rejects_non_split_input(self):
        with pytest.raises(GraphError):
            split_lower_bound(cycle(4), None)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (0, 2), (1, 2)], "split lower bound needs a connected graph"),
            ([(0, 1), (0, 2), (1, 2), (0, 3)], "split lower bound needs a twin-free graph"),
        ],
        ids=["K3+K1", "K3-with-pendant"],
    )
    def test_hypothesis_errors_name_the_split_lower_bound(self, edges, message):
        g = build_graph(4, edges)
        part = find_split_partition(g)
        assert part is not None and part.clique == frozenset({0, 1, 2})
        with pytest.raises(GraphError, match="^%s$" % message):
            split_lower_bound(g, part)
