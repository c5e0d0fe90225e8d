"""Graph construction, twin machinery, and structural queries."""

import pytest

from rlid import (
    BudgetExceeded,
    Coloring,
    GraphError,
    are_twins,
    bipartition,
    build_graph,
    degeneracy,
    is_isomorphic,
    is_twin_free,
    join,
    max_clique,
    max_clique_size,
    quotient,
    twin_partition,
    verify_id,
    verify_identifying_code,
    verify_lid,
    verify_proper,
    verify_rlid,
)
from rlid.families import g_star, power_path, prop1_graph
from rlid.graph import Graph, graph_from_edge_mask, members, twin_representatives
from rlid.solvers import Budget

from _helpers import complete, cycle, path, star_graph
from _oracles import (
    adjacency,
    all_labeled_graphs,
    brute_bipartition,
    brute_degeneracy,
    brute_distance_classes,
    brute_max_clique,
    closed_neighborhoods,
)


class TestBuildGraph:
    def test_p4_closed_neighborhood(self):
        g = path(4)
        assert set(members(g.closed[1])) == {0, 1, 2}

    def test_singleton(self):
        g = build_graph(1, [])
        assert g.n == 1
        assert set(members(g.closed[0])) == {0}

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.edge_count == 2

    def test_self_loop_rejected_naming_the_pair(self):
        with pytest.raises(GraphError, match="2"):
            build_graph(3, [(0, 1), (2, 2)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(GraphError):
            build_graph(3, [(0, 3)])


def _built_masks(g):
    """The names of the mask slots g has filled, read without filling them."""
    out = []
    for name in ("adj", "closed"):
        try:
            Graph.__dict__[name].__get__(g, Graph)
        except AttributeError:
            continue
        out.append(name)
    return out


class TestGraphForms:
    def test_edge_and_mask_constructors_agree(self):
        for n in range(6):
            for edges in all_labeled_graphs(n):
                nbrs = adjacency(n, edges)
                masks = [sum(1 << w for w in nbrs[v]) for v in range(n)]
                a = Graph(n, edges)
                b = Graph.from_adj_masks(n, masks)
                assert a == b and b == a and hash(a) == hash(b), edges
                assert a.edges() == b.edges() == sorted(edges)
                assert a.edge_count == b.edge_count == len(edges)
                for v in range(n):
                    assert a.degree(v) == b.degree(v) == len(nbrs[v])
                    assert a.neighbors(v) == b.neighbors(v) == tuple(sorted(nbrs[v]))
                    for w in range(n):
                        assert a.has_edge(v, w) == b.has_edge(v, w) == (w in nbrs[v])
                assert _built_masks(a) == []
                assert a.adj == b.adj == tuple(masks)
                assert a.closed == b.closed
                assert a == b and hash(a) == hash(b)

    def test_unequal_graphs_across_forms(self):
        a = path(4)
        b = Graph.from_adj_masks(4, cycle(4).adj)
        assert a != b and b != a
        assert a != Graph(5, a.edges())

    def test_masks_are_built_on_first_read_and_kept(self):
        g = path(5)
        assert _built_masks(g) == []
        adj = g.adj
        assert _built_masks(g) == ["adj"]
        assert g.adj is adj
        assert g.closed is g.closed
        assert _built_masks(g) == ["adj", "closed"]

    def test_mask_graph_builds_closed_on_first_read_and_keeps_it(self):
        g = Graph.from_adj_masks(5, path(5).adj)
        assert _built_masks(g) == ["adj"]
        closed = g.closed
        assert _built_masks(g) == ["adj", "closed"]
        assert g.closed is closed
        assert closed == path(5).closed

    def test_mask_graph_accessors_keep_no_tuples(self):
        g = Graph.from_adj_masks(5, cycle(5).adj)
        verify_rlid(g, Coloring([1, 2, 3, 1, 2]))
        assert g.edges() == cycle(5).edges()
        assert g.degree(0) == 2 and g.has_edge(0, 4) and not g.has_edge(0, 2)
        assert g._nbrs is None

    def test_verifiers_build_no_masks(self):
        g = g_star(cycle(5)).graph
        c = Coloring([1 + v % 3 for v in range(g.n)])
        for verify in (verify_rlid, verify_lid, verify_proper, verify_id):
            verify(g, c)
        verify_identifying_code(g, range(0, g.n, 2))
        assert _built_masks(g) == []


class TestLevels:
    def test_levels_are_the_distance_classes(self):
        for n in range(1, 6):
            for mask, edges in enumerate(all_labeled_graphs(n)):
                for g in (graph_from_edge_mask(n, mask), Graph(n, edges)):
                    for s in range(n):
                        got = [list(members(level)) for level in g.levels(s)]
                        assert got == brute_distance_classes(n, edges, s), (n, edges, s)

    def test_bipartition_matches_the_oracle_on_every_small_graph(self):
        for n in range(0, 7):
            for mask, edges in enumerate(all_labeled_graphs(n)):
                g = graph_from_edge_mask(n, mask)
                assert bipartition(g) == brute_bipartition(n, edges), (n, edges)


class TestIsConnected:
    def test_agrees_with_components_on_every_small_graph(self):
        for n in range(1, 7):
            for mask, edges in enumerate(all_labeled_graphs(n)):
                for g in (graph_from_edge_mask(n, mask), Graph(n, edges)):
                    assert g.is_connected() == (len(g.components()) == 1), (n, edges)

    def test_edge_cases(self):
        assert Graph(0).is_connected() and Graph(0).components() == []
        assert Graph(1).is_connected()
        assert not Graph(2).is_connected()
        assert not Graph(4, [(0, 1), (1, 2)]).is_connected()  # vertex 3 alone
        assert not Graph(4, [(1, 2), (2, 3)]).is_connected()  # vertex 0 alone
        assert path(60).is_connected() and cycle(61).is_connected()


class TestTwins:
    def test_complete_graph_vertices_are_twins(self):
        assert are_twins(complete(4), 0, 1)

    def test_c4_opposite_vertices_are_not_twins(self):
        # 0 lies in N[0] but not in N[2]
        assert not are_twins(cycle(4), 0, 2)

    def test_p4_middle_vertices_are_not_twins(self):
        assert not are_twins(path(4), 1, 2)

    def test_k4_single_class(self):
        part = twin_partition(complete(4))
        assert part.classes == ((0, 1, 2, 3),)
        assert part.t == 1

    def test_p4_all_singletons(self):
        part = twin_partition(path(4))
        assert len(part.classes) == 4
        assert part.t == 0

    def test_k4_plus_pendant(self):
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
        part = twin_partition(g)
        assert set(map(frozenset, part.classes)) == {
            frozenset({0}),
            frozenset({4}),
            frozenset({1, 2, 3}),
        }
        assert part.t == 1

    @pytest.mark.parametrize("n", range(2, 6))
    def test_quotient_of_complete_graph_is_k1(self, n):
        q, part = quotient(complete(n))
        assert q.n == 1
        assert part.t == 1

    def test_quotient_of_twin_free_graph_is_identity(self):
        q, part = quotient(path(4))
        assert part.t == 0
        assert is_isomorphic(q, path(4))

    def test_quotient_of_twin_free_graph_is_the_graph_itself(self):
        g = path(5)
        q, part = quotient(g)
        assert q is g
        assert part.classes == tuple((v,) for v in range(5))

    def test_quotient_output_is_twin_free(self):
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
        q, _ = quotient(g)
        assert is_twin_free(q)

    def test_twin_classes_match_closed_neighborhood_fibers(self):
        # brute-force cross-check of the class definition on one graph
        g = build_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        closed = closed_neighborhoods(6, list(g.edges()))
        part = twin_partition(g)
        for u in range(6):
            for v in range(u + 1, 6):
                same = part.representative_map[u] == part.representative_map[v]
                assert same == (closed[u] == closed[v])


class TestCliqueAndBipartition:
    def test_k5(self):
        assert max_clique_size(complete(5)) == 5

    def test_c5_triangle_free(self):
        assert max_clique_size(cycle(5)) == 2

    def test_h2_clique_is_the_power_set_block(self):
        from rlid.families import h_p

        assert max_clique_size(h_p(2).graph) == 4

    def test_max_clique_returns_pairwise_adjacent_vertices(self):
        for n in range(6):
            for edges in all_labeled_graphs(n):
                g = build_graph(n, edges)
                clique = max_clique(g)
                assert list(clique) == sorted(set(clique))
                assert all(g.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])
                assert len(clique) == max_clique_size(g) == brute_max_clique(n, edges)

    def test_max_clique_within_a_mask(self):
        g = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)])
        assert max_clique(g, within=0b00111) == (0, 1, 2)
        assert max_clique(g, within=0b11100) == (2, 3, 4)
        assert len(max_clique(g, within=0b11011)) == 2

    def test_clique_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceeded):
            max_clique_size(complete(12), Budget(max_nodes=3))

    def test_c6_sides(self):
        assert bipartition(cycle(6)) == (frozenset({0, 2, 4}), frozenset({1, 3, 5}))

    def test_c5_has_no_bipartition(self):
        assert bipartition(cycle(5)) is None

    def test_star_sides(self):
        got = bipartition(star_graph(3))
        assert got == (frozenset({0}), frozenset({1, 2, 3}))


    @pytest.mark.parametrize("n", range(6))
    def test_twin_representatives_are_the_smallest_of_each_class(self, n):
        for edges in all_labeled_graphs(n):
            g = build_graph(n, edges)
            closed = closed_neighborhoods(n, edges)
            smallest = {v for v in range(n) if all(closed[u] != closed[v] for u in range(v))}
            assert set(members(twin_representatives(g))) == smallest, edges
            assert twin_partition(g).representatives == tuple(sorted(smallest)), edges


class TestDegeneracyJoinIso:
    @pytest.mark.parametrize("tree", [path(5), star_graph(4)])
    def test_tree_degeneracy_one(self, tree):
        k, order = degeneracy(tree)
        assert k == 1
        assert sorted(order) == list(range(tree.n))

    def test_gadget_degeneracy_two(self):
        assert degeneracy(g_star(complete(5)).graph)[0] == 2

    def test_k5_degeneracy(self):
        assert degeneracy(complete(5))[0] == 4

    def test_degeneracy_matches_oracle_on_all_graphs_up_to_order_six(self):
        checked = 0
        for n in range(7):
            for edges in all_labeled_graphs(n):
                assert degeneracy(build_graph(n, edges)) == brute_degeneracy(n, edges)
                checked += 1
        assert checked == 33_868

    def test_join_k1_with_two_isolated_vertices_is_p3(self):
        got = join(complete(1), build_graph(2, []))
        assert is_isomorphic(got, path(3))

    def test_join_k1_k1_is_k2(self):
        assert is_isomorphic(join(complete(1), complete(1)), complete(2))

    def test_join_adds_universal_vertex(self):
        fan = join(complete(1), power_path(2))
        assert fan.n == 5
        assert fan.degree(0) == 4

    def test_power_path_2_is_p4(self):
        assert is_isomorphic(path(4), power_path(2))

    def test_c4_p4_not_isomorphic(self):
        assert not is_isomorphic(cycle(4), path(4))

    @pytest.mark.parametrize("g", [path(4), cycle(5), complete(4), star_graph(3)])
    def test_identity(self, g):
        assert is_isomorphic(g, g)

    def test_regular_graphs_refinement_cannot_split(self):
        # equal degrees on both sides: only the matcher can tell them apart
        two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_isomorphic(cycle(6), two_triangles)
        k33 = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        prism = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])
        assert not is_isomorphic(k33, prism)
        relabelled = build_graph(6, [(0, 3), (3, 5), (0, 5), (1, 2), (2, 4), (1, 4)])
        assert is_isomorphic(two_triangles, relabelled)

    def test_matching_deeper_than_the_recursion_limit(self):
        # the matching goes 1,501 vertices deep, past the default recursion limit
        leaves = 1500
        moved_center = build_graph(leaves + 1, [(leaves, v) for v in range(leaves)])
        assert is_isomorphic(star_graph(leaves), moved_center)


def test_quotient_of_prop1_instance_matches_gadget_of_k7():
    inst = prop1_graph(4)
    q, part = quotient(inst.graph)
    assert part.t == 3
    assert is_isomorphic(q, g_star(complete(7)).graph)
