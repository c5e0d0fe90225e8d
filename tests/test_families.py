"""Generated families, their canonical colorings, and the two
constructive coloring algorithms."""

import pytest

import rlid
from rlid import coloring, families
from rlid import (
    Coloring,
    ColoringError,
    Graph,
    GraphError,
    build_graph,
    chi_exact,
    decide_k_rlid,
    is_identifying_code,
    is_isomorphic,
    is_proper,
    is_rlid,
    is_twin_free,
    max_clique_size,
    random_split_graph,
    verify_rlid,
)
from rlid.families import (
    SplitPartition,
    bipartite_three_coloring,
    find_split_partition,
    g_star,
    h_p,
    lift_coloring_gstar,
    maximal_split_partition,
    power_path,
    project_coloring_gstar,
    prop1_graph,
    q1,
    q2,
    split_rlid_coloring,
    split_separator,
    star,
)
from rlid.graph import edge_mask
from rlid.solvers import enumerate_graphs

from _helpers import complete, cycle, path, star_graph, threshold_graph, wheel
from _oracles import (
    adjacency,
    all_labeled_graphs,
    brute_bipartite,
    brute_connected,
    brute_distance_classes,
    brute_split_partition,
)


class TestStar:
    def test_two_leaves_is_p3(self):
        inst = star(2)
        assert is_isomorphic(inst.graph, path(3))
        assert sorted(inst.canonical_coloring.colors) == [1, 2, 3]
        assert inst.expected_chi_rlid == 3

    def test_three_leaves_coloring(self):
        inst = star(3)
        assert inst.canonical_coloring.colors == (1, 2, 3, 3)
        assert is_rlid(inst.graph, inst.canonical_coloring)

    def test_five_leaves_three_colors(self):
        inst = star(5)
        assert len(inst.canonical_coloring.used_colors()) == 3
        assert is_rlid(inst.graph, inst.canonical_coloring)

    def test_single_leaf_rejected(self):
        with pytest.raises(GraphError):
            star(1)

    def test_roles_cover_all_vertices(self):
        inst = star(4)
        assert set(inst.roles) == set(range(inst.graph.n))


class TestPowerPath:
    def test_first_power_is_p4(self):
        assert is_isomorphic(power_path(2), path(4))

    def test_second_power_edge_count(self):
        assert power_path(3).edge_count == 9

    def test_twin_free(self):
        assert is_twin_free(power_path(2))
        assert is_twin_free(power_path(3))


class TestHp:
    def test_order_and_palette(self):
        inst = h_p(2)
        assert inst.graph.n == 10
        assert len(inst.canonical_coloring.used_colors()) == 3
        assert verify_rlid(inst.graph, inst.canonical_coloring).valid

    def test_clique_vertex_sees_its_index_set_plus_top_color(self):
        from rlid import neighborhood_color_set

        inst = h_p(2)
        full = next(v for v, r in inst.roles.items() if r == "x:{1,2}")
        got = neighborhood_color_set(inst.graph, inst.canonical_coloring, full)
        assert got == {1, 2, 3}

    def test_p3_certified_without_search(self):
        from rlid import lower_bound_log_omega

        inst = h_p(3)
        assert lower_bound_log_omega(inst.graph) == 4
        assert len(inst.canonical_coloring.used_colors()) == 4
        assert verify_rlid(inst.graph, inst.canonical_coloring).valid

    def test_clique_size_is_power_of_two(self):
        assert max_clique_size(h_p(2).graph) == 4
        assert max_clique_size(h_p(3).graph) == 8


class TestGadget:
    def test_k3_counts(self):
        inst = g_star(complete(3))
        assert inst.graph.n == 12
        assert inst.graph.edge_count == 12

    def test_p3_count(self):
        assert g_star(path(3)).graph.n == 10

    def test_accepts_twin_inputs(self):
        # complete inputs are all twins; the twin-expansion family builds
        # its quotient reference through this path
        inst = g_star(complete(4))
        assert inst.graph.n == 4 + 4 + 2 * 6

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            g_star(build_graph(4, [(0, 1), (2, 3)]))

    def test_roles_cover_all_vertices(self):
        inst = g_star(path(4))
        assert set(inst.roles) == set(range(inst.graph.n))

    def test_gadget_matches_its_edge_list_definition(self):
        """The gadget's neighbour tuples, written directly, equal the graph
        built from the edges its docstring numbers, on every connected
        graph of order 3..5 and on a mask-built input."""
        inputs = [g for n in (3, 4, 5) for g in enumerate_graphs(n, lambda g: g.is_connected())]
        inputs += [wheel(6), Graph.from_adj_masks(7, wheel(6).adj)]
        for g in inputs:
            edges_in = g.edges()
            n, m = g.n, len(edges_in)
            edges = []
            for idx, (u, v) in enumerate(edges_in):
                a = n + 2 * idx
                edges += [(u, a), (a, a + 1), (a + 1, v)]
            edges += [(v, n + 2 * m + v) for v in range(n)]
            want = Graph(2 * n + 2 * m, edges)
            got = g_star(g).graph
            assert got == want
            assert [got.neighbors(v) for v in range(got.n)] == [want.neighbors(v) for v in range(got.n)]
            assert got.adj == want.adj and got.closed == want.closed


class TestLiftProject:
    def test_lift_triangle_rainbow(self):
        g = complete(3)
        lifted = lift_coloring_gstar(g, Coloring([1, 2, 3]), 3)
        assert is_rlid(g_star(g).graph, lifted)

    def test_lift_p3(self):
        g = path(3)
        lifted = lift_coloring_gstar(g, Coloring([1, 2, 1], palette=3), 3)
        assert is_rlid(g_star(g).graph, lifted)

    def test_lift_c5(self):
        g = cycle(5)
        lifted = lift_coloring_gstar(g, Coloring([1, 2, 1, 2, 3]), 3)
        assert is_rlid(g_star(g).graph, lifted)

    def test_lift_rejects_improper_input(self):
        with pytest.raises(ColoringError):
            lift_coloring_gstar(path(3), Coloring([1, 1, 2], palette=3), 3)

    def test_lift_rejects_what_the_gadget_rejects(self):
        with pytest.raises(GraphError):
            lift_coloring_gstar(build_graph(4, [(0, 1), (1, 2)]), Coloring([1, 2, 1, 1]), 3)

    def test_lift_rejects_small_palette(self):
        with pytest.raises(ColoringError):
            lift_coloring_gstar(complete(3), Coloring([1, 2, 3]), 2)

    def test_round_trip_restores_original(self):
        g = path(4)
        base = Coloring([1, 2, 3, 1], palette=3)
        inst = g_star(g)
        back = project_coloring_gstar(inst, lift_coloring_gstar(g, base, 3, inst))
        assert back.colors == base.colors

    def test_solver_witness_projects_to_proper(self):
        inst = g_star(cycle(5))
        found = decide_k_rlid(inst.graph, 3)
        assert found is not None
        assert is_proper(cycle(5), project_coloring_gstar(inst, found))

    def test_projection_of_invalid_coloring_rejected(self):
        inst = g_star(path(3))
        with pytest.raises(ColoringError):
            project_coloring_gstar(inst, Coloring([1] * inst.graph.n))


class TestQFamilies:
    def test_q1_smallest_is_p3(self):
        inst = q1(2)
        assert is_isomorphic(inst.graph, path(3))
        assert inst.expected_chi_rlid == 3

    def test_q1_three(self):
        inst = q1(3)
        assert inst.graph.n == 6
        assert len(inst.canonical_coloring.used_colors()) == 4
        assert verify_rlid(inst.graph, inst.canonical_coloring).valid
        assert chi_exact(inst.graph, "rlid").value == 4

    def test_q2_three(self):
        inst = q2(3)
        assert inst.graph.n == 5
        assert verify_rlid(inst.graph, inst.canonical_coloring).valid
        assert chi_exact(inst.graph, "rlid").value == 4

    @pytest.mark.parametrize("p", range(2, 6))
    def test_q2_twin_free(self, p):
        assert is_twin_free(q2(p).graph)


class TestProp1:
    def test_smallest_instance(self):
        inst = prop1_graph(4)
        assert inst.graph.n == 59  # 7 originals + 7 pendants + 42 subdivisions + 3 twins
        assert len(inst.canonical_coloring.used_colors()) == 4
        assert verify_rlid(inst.graph, inst.canonical_coloring).valid
        assert inst.expected_chi_rlid == 4

    def test_small_exponent_rejected(self):
        with pytest.raises(GraphError):
            prop1_graph(3)

    def test_roles_cover_all_vertices(self):
        inst = prop1_graph(4)
        assert set(inst.roles) == set(range(inst.graph.n))


class TestBipartiteColoring:
    def test_families_and_the_package_re_export_the_coloring_module(self):
        for name in ("bipartite_three_coloring", "LevelDecomposition", "TheoremCounterexample"):
            assert getattr(families, name) is getattr(coloring, name) is getattr(rlid, name)

    def test_c6_level_table(self):
        g = cycle(6)
        c, levels = bipartite_three_coloring(g)
        assert is_rlid(g, c)
        assert len(c.used_colors()) <= 3
        by_level = [sorted(c.colors[v] for v in lv) for lv in levels.levels]
        assert by_level == [[1], [2, 2], [3, 3], [3]]

    def test_p5_end_rooted(self):
        c, levels = bipartite_three_coloring(path(5))
        assert levels.root == 0
        assert c.colors == (1, 2, 3, 2, 1)
        assert is_rlid(path(5), c)

    def test_star_rooted_at_a_leaf(self):
        # vertex 0 is the universal centre, so the levels start at leaf 1
        c, levels = bipartite_three_coloring(star_graph(3))
        assert levels.root == 1
        assert c.colors == (2, 1, 3, 3)

    def test_rejects_odd_cycle(self):
        with pytest.raises(GraphError, match="graph is not bipartite"):
            bipartite_three_coloring(cycle(5))

    @pytest.mark.parametrize(
        "g",
        [Graph(5, [(0, 1), (1, 2), (3, 4)]), Graph(4, [(0, 1), (0, 2), (1, 2)])],
        ids=["P3+K2", "K3+K1"],
    )
    def test_rejects_disconnected(self, g):
        with pytest.raises(GraphError, match="need a connected graph"):
            bipartite_three_coloring(g)

    def test_levels_are_the_distance_classes_from_the_root(self):
        for n in range(3, 7):
            for edges in all_labeled_graphs(n):
                if not (brute_connected(n, edges) and brute_bipartite(n, edges)):
                    continue
                _, levels = bipartite_three_coloring(Graph(n, edges))
                assert levels.root == (1 if len(adjacency(n, edges)[0]) == n - 1 else 0)
                want = brute_distance_classes(n, edges, levels.root)
                assert levels.levels == tuple(map(tuple, want)), (n, edges)

    def test_rejects_tiny_orders(self):
        with pytest.raises(GraphError):
            bipartite_three_coloring(path(2))

    @staticmethod
    def _check_level_decomposition(g):
        _, levels = bipartite_three_coloring(g)
        assert set(levels.levels[0]) == {levels.root}
        seen = set()
        for lv in levels.levels:
            assert not (set(lv) & seen)
            seen |= set(lv)
        assert seen == set(range(g.n))
        idx = {v: i for i, lv in enumerate(levels.levels) for v in lv}
        for u, v in g.edges():
            assert abs(idx[u] - idx[v]) <= 1
        for i, lv in enumerate(levels.levels):
            assert set(levels.a_sets[i]) | set(levels.b_sets[i]) == set(lv)
            assert not (set(levels.a_sets[i]) & set(levels.b_sets[i]))
        assert not levels.b_sets[-1]

    def test_level_decomposition_invariants(self):
        self._check_level_decomposition(cycle(6))

    @pytest.mark.parametrize("leaves", [2, 3, 5])
    def test_level_decomposition_invariants_on_stars(self, leaves):
        self._check_level_decomposition(star_graph(leaves))


class TestSplitSeparator:
    def test_q2_inner_pair(self):
        inst = q2(3)
        part = SplitPartition(frozenset({0, 1, 2}), frozenset({3, 4}))
        sep = split_separator(inst.graph, part)
        assert sep == frozenset({3, 4})
        closed_hits = [
            frozenset(w for w in sep if w == v or inst.graph.has_edge(v, w))
            for v in part.clique
        ]
        assert len(set(closed_hits)) == len(part.clique)

    def test_small_triangle_instance(self):
        # smallest twin-free case over a triangle clique; a single stable
        # vertex can never separate three clique vertices
        g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 4)])
        part = SplitPartition(frozenset({0, 1, 2}), frozenset({3, 4}))
        sep = split_separator(g, part)
        assert len(sep) <= 2

    def test_at_most_one_clique_vertex_unseen(self):
        for seed in range(1, 8):
            g, part = random_split_graph(seed, 4, 3, 0.5, twin_free=True)
            sep = split_separator(g, part)
            assert len(sep) <= len(part.clique) - 1
            empty = [
                v
                for v in part.clique
                if not any(w == v or g.has_edge(v, w) for w in sep)
            ]
            assert len(empty) <= 1

    def test_clique_side_deeper_than_the_recursion_limit(self):
        g = threshold_graph(1050)
        part = find_split_partition(g)
        assert part.clique == frozenset(range(1050))
        sep = split_separator(g, part)
        assert sep <= part.stable
        assert len(sep) <= len(part.clique) - 1
        traces = {
            frozenset(w for w in sep if g.has_edge(v, w)) for v in part.clique
        }
        assert len(traces) == len(part.clique)

    def test_rejects_twins(self):
        # N[0] = N[1] = {0,1,2}
        bad = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        with pytest.raises(GraphError):
            split_separator(bad, SplitPartition(frozenset({0, 1, 2}), frozenset({3})))

    def test_rejects_disconnected(self):
        g = build_graph(4, [(0, 1), (0, 2), (1, 2)])
        part = SplitPartition(frozenset({0, 1, 2}), frozenset({3}))
        with pytest.raises(GraphError):
            split_separator(g, part)

    def test_rejects_non_maximal_clique(self):
        g = complete(3)
        part = SplitPartition(frozenset({0, 1}), frozenset({2}))
        with pytest.raises(GraphError):
            split_separator(g, part)


class TestMaximalSplitPartition:
    @pytest.mark.parametrize(
        "clique,stable,message",
        [
            ({0, 1}, {1, 2, 3}, "clique and stable parts must partition the vertex set"),
            ({0, 1}, {2}, "clique and stable parts must partition the vertex set"),
            ({0, 1, 3}, {2}, "clique part is not complete at vertex 0"),
            ({0}, {1, 2, 3}, "stable part has an internal edge at vertex 1"),
        ],
        ids=["overlap", "missing", "incomplete-clique", "stable-edge"],
    )
    def test_rejects_what_is_not_a_split_partition(self, clique, stable, message):
        g = path(4)
        part = SplitPartition(frozenset(clique), frozenset(stable))
        with pytest.raises(GraphError) as err:
            maximal_split_partition(g, part)
        assert str(err.value) == message

    def test_moves_the_first_stable_vertex_that_sees_the_clique_side(self):
        # stable vertices 3 and 4 both see the clique side {1, 2}, 0
        # sees only 1; 3 moves and 4 stays
        g = build_graph(5, [(1, 2), (0, 1), (1, 3), (2, 3), (1, 4), (2, 4)])
        part = SplitPartition(frozenset({1, 2}), frozenset({0, 3, 4}))
        got = maximal_split_partition(g, part)
        assert (got.clique, got.stable) == ({1, 2, 3}, {0, 4})

    def test_returns_a_maximal_partition_itself(self):
        g = q2(4).graph
        part = find_split_partition(g)
        assert maximal_split_partition(g, part) is part


class TestRandomSplitDraws:
    @pytest.mark.parametrize(
        "args,twin_free,mask,clique",
        [
            ((0, 3, 4, 0.5), False, 0x3E4B, 3),
            ((7, 4, 3, 0.3), False, 0x2E9E7, 4),
            ((11, 2, 5, 0.9), False, 0x7FB, 3),
            ((3, 4, 4, 0.5), True, 0x30FDAF, 4),
            ((1, 1, 1, 0), False, 0x1, 2),
            ((5, 3, 3, 1.0), False, 0xFFF, 4),
        ],
    )
    def test_pinned_draws(self, args, twin_free, mask, clique):
        # the graph and the repaired partition, clique side first
        g, part = random_split_graph(*args, twin_free=twin_free)
        assert edge_mask(g) == mask
        assert part.clique == frozenset(range(clique))
        assert part.stable == frozenset(range(clique, g.n))


class TestSplitColoring:
    def test_q2_within_omega_plus_two(self):
        inst = q2(3)
        part = SplitPartition(frozenset({0, 1, 2}), frozenset({3, 4}))
        c = split_rlid_coloring(inst.graph, part)
        assert is_rlid(inst.graph, c)
        assert len(c.used_colors()) <= 5

    def test_star_as_split_graph(self):
        g = star_graph(3)
        part = SplitPartition(frozenset({0, 1}), frozenset({2, 3}))
        c = split_rlid_coloring(g, part)
        assert is_rlid(g, c)
        assert len(c.used_colors()) <= 4

    @pytest.mark.parametrize("seed", range(1, 31))
    def test_thirty_random_instances(self, seed):
        g, part = random_split_graph(seed, 3, 4, 0.5)
        omega = max_clique_size(g)
        assert omega <= 5
        c = split_rlid_coloring(g, part)
        assert is_rlid(g, c)
        assert len(c.used_colors()) <= omega + 2

    def test_find_partition_agrees(self):
        inst = q2(3)
        part = find_split_partition(inst.graph)
        assert part is not None
        c = split_rlid_coloring(inst.graph, part)
        assert is_rlid(inst.graph, c)

    def test_non_split_graph_has_no_partition(self):
        assert find_split_partition(cycle(4)) is None


class TestSplitRecognition:
    @pytest.mark.parametrize("n", range(7))
    def test_matches_brute_force_on_every_labeled_graph(self, n):
        for edges in all_labeled_graphs(n):
            part = find_split_partition(build_graph(n, edges))
            want = brute_split_partition(n, edges)
            assert (None if part is None else part.clique) == want, edges
            if part is not None:
                assert part.stable == frozenset(range(n)) - part.clique

    @pytest.mark.parametrize(
        "inst,clique", [(q2(8), range(8)), (q1(5), range(16))], ids=["q2-8", "q1-5"]
    )
    def test_no_order_cap(self, inst, clique):
        part = find_split_partition(inst.graph)
        assert part is not None and part.clique == frozenset(clique)
        assert is_rlid(inst.graph, split_rlid_coloring(inst.graph, part))

    def test_case_table_needs_no_exact_search(self):
        # every connected split graph of order <= 6, twins included: the
        # twin-free ones (4,081) go through the case table directly, the
        # others through the quotient
        count = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n, Graph.is_connected):
                part = find_split_partition(g)
                if part is None:
                    continue
                count += 1
                c = split_rlid_coloring(g, part)
                assert is_rlid(g, c), g.edges()
                assert len(c.used_colors()) <= max_clique_size(g) + 2, g.edges()
        assert count == 7044
