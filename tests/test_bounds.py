"""Certified bounds and the full-palette characterization."""

import pytest

from rlid import bounds as bounds_mod
from rlid import (
    Budget,
    Coloring,
    GraphError,
    bounds_report,
    build_graph,
    characterize_full_palette,
    chi_exact,
    gamma_id_exact,
    is_twin_free,
    join,
    lower_bound_log_omega,
    split_lower_bound,
    verify_rlid,
)
from rlid.families import find_split_partition, g_star, h_p, power_path, q1, q2
from rlid.solvers import enumerate_graphs

from _helpers import complete, cycle, path, threshold_graph
from _oracles import brute_is_rlid


class TestLogOmegaLowerBound:
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
    def test_p4_exact_three(self):
        r = bounds_report(path(4))
        assert (3, "no-two-rule") in r.lower_bounds
        assert (3, "bipartite-3") in r.upper_bounds
        assert r.exact == 3

    def test_q2_split_bounds_present(self):
        r = bounds_report(q2(3).graph)
        assert (5, "split-omega-plus-2") in r.upper_bounds
        assert (3, "log-omega-quotient") in r.lower_bounds
        assert r.best_lower == 3
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

    def test_gadget_of_w5_gets_the_code_bound(self):
        wheel = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
        r = bounds_report(g_star(build_graph(6, wheel)).graph)
        assert (17, "gamma-id-plus-1") in r.upper_bounds
        assert r.best_upper == 17

    def test_code_search_runs_only_when_it_can_tighten(self, monkeypatch):
        calls = []

        def recording(g, budget=None):
            calls.append(g)
            return gamma_id_exact(g, budget)

        monkeypatch.setattr(bounds_mod, "gamma_id_exact", recording)
        ran = 0
        for n in range(1, 6):
            for g in enumerate_graphs(n, lambda g: g.is_connected() and is_twin_free(g)):
                calls.clear()
                r = bounds_report(g)
                cheap = [v for v, prov in r.upper_bounds if prov != "gamma-id-plus-1"]
                can_tighten = r.best_lower < min(cheap) and n.bit_length() + 1 < min(cheap)
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
        assert r.notes == ("gamma-id-plus-1 skipped: budget exceeded",)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_soundness_on_all_small_connected_graphs(self, n):
        for g in enumerate_graphs(n, lambda g: g.is_connected()):
            r = bounds_report(g)
            truth = chi_exact(g, "rlid", search_two=True).value
            assert r.best_lower <= truth <= r.best_upper


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
        # the 1,020-vertex factor is matched against power_path(510)
        assert characterize_full_palette(join(complete(1), power_path(510)))


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
