"""Property tests: randomized invariants backed by the brute oracle."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rlid import (
    Coloring,
    bounds_report,
    build_graph,
    chi_exact,
    decide_k_rlid,
    graph_from_edge_mask,
    is_id,
    is_identifying_code,
    is_lid,
    is_rlid,
    is_twin_free,
    parse_graph_text,
    quotient,
    twin_partition,
    verify_rlid,
    write_graph_dimacs,
    write_graph_edgelist,
)
from rlid.graph import edge_mask, is_isomorphic, join, members

from _oracles import brute_is_clique_union, brute_is_rlid

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_graph(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    return graph_from_edge_mask(n, mask)


@st.composite
def graph_with_coloring(draw):
    g = draw(small_graph())
    colors = draw(
        st.lists(
            st.integers(min_value=1, max_value=max(g.n, 1)),
            min_size=g.n,
            max_size=g.n,
        )
    )
    return g, Coloring(colors, palette=max(g.n, 1))


@st.composite
def graph_with_planted_twins(draw):
    base = draw(small_graph(min_n=2, max_n=5))
    clones = draw(st.lists(st.integers(min_value=0, max_value=base.n - 1),
                           min_size=1, max_size=2))
    g = base
    for x in clones:
        x %= g.n
        masks = list(g.adj) + [g.closed[x]]
        for v in members(g.closed[x]):
            masks[v] |= 1 << g.n
        g = build_graph(
            g.n + 1,
            [(u, v) for u in range(g.n + 1) for v in members(masks[u]) if u < v],
        )
    return g


class TestVerifierImplications:
    @PROPERTY_SETTINGS
    @given(gc=graph_with_coloring())
    def test_lid_implies_rlid(self, gc):
        g, c = gc
        if is_lid(g, c):
            assert is_rlid(g, c)

    @PROPERTY_SETTINGS
    @given(gc=graph_with_coloring())
    def test_id_implies_rlid(self, gc):
        g, c = gc
        if is_id(g, c):
            assert is_rlid(g, c)

    @PROPERTY_SETTINGS
    @given(gc=graph_with_coloring(), data=st.data())
    def test_palette_bijection_invariance(self, gc, data):
        g, c = gc
        perm = data.draw(st.permutations(range(1, c.palette + 1)))
        relabeled = Coloring([perm[x - 1] for x in c.colors], palette=c.palette)
        assert is_rlid(g, c) == is_rlid(g, relabeled)

    @PROPERTY_SETTINGS
    @given(g=small_graph())
    def test_rainbow_on_twin_free_is_always_valid(self, g):
        assume(g.n >= 1)
        if is_twin_free(g):
            assert is_rlid(g, Coloring(list(range(1, g.n + 1))))

    @PROPERTY_SETTINGS
    @given(g=small_graph())
    def test_monochrome_valid_exactly_on_clique_unions(self, g):
        c = Coloring([1] * g.n, palette=1)
        assert is_rlid(g, c) == brute_is_clique_union(g.n, list(g.edges()))

    @PROPERTY_SETTINGS
    @given(g=small_graph())
    def test_full_vertex_set_identifies_iff_twin_free(self, g):
        code = frozenset(range(g.n))
        assert is_identifying_code(g, code) == is_twin_free(g)

    @PROPERTY_SETTINGS
    @given(gc=graph_with_coloring())
    def test_verifier_matches_brute_oracle(self, gc):
        g, c = gc
        got = is_rlid(g, c)
        assert got == brute_is_rlid(g.n, list(g.edges()), list(c.colors))


class TestGraphInvariants:
    @PROPERTY_SETTINGS
    @given(g=small_graph())
    def test_every_vertex_in_its_closed_neighborhood(self, g):
        for v in range(g.n):
            assert g.closed[v] >> v & 1

    @PROPERTY_SETTINGS
    @given(g=small_graph())
    def test_twin_classes_are_neighborhood_fibers(self, g):
        part = twin_partition(g)
        for u in range(g.n):
            for v in range(g.n):
                same_class = part.representative_map[u] == part.representative_map[v]
                assert same_class == (g.closed[u] == g.closed[v])

    @PROPERTY_SETTINGS
    @given(g=small_graph())
    def test_quotient_is_twin_free_and_idempotent(self, g):
        q, _ = quotient(g)
        assert is_twin_free(q)
        q2, part2 = quotient(q)
        assert part2.t == 0
        assert is_isomorphic(q, q2)

    @PROPERTY_SETTINGS
    @given(g=graph_with_planted_twins())
    def test_edge_mask_round_trip(self, g):
        mask = edge_mask(g)
        assert graph_from_edge_mask(g.n, mask).adj == g.adj
        assert edge_mask(graph_from_edge_mask(g.n, mask)) == mask

    @PROPERTY_SETTINGS
    @given(g=small_graph(max_n=5))
    def test_join_with_k1_adds_universal_vertex(self, g):
        joined = join(build_graph(1, []), g)
        assert joined.n == g.n + 1
        assert joined.degree(0) == g.n


class TestSolverInvariants:
    @PROPERTY_SETTINGS
    @given(g=small_graph(), k=st.integers(min_value=1, max_value=4))
    def test_decide_witness_always_verifies(self, g, k):
        assume(g.n >= 1)
        found = decide_k_rlid(g, k)
        if found is not None:
            assert found.palette <= k
            assert is_rlid(g, found)

    @PROPERTY_SETTINGS
    @given(g=small_graph(max_n=5))
    def test_two_color_shortcut_agrees_with_full_search(self, g):
        assume(g.n >= 1)
        fast = chi_exact(g, "rlid").value
        slow = chi_exact(g, "rlid", search_two=True).value
        assert fast == slow

    @PROPERTY_SETTINGS
    @given(g=small_graph(max_n=5))
    def test_twin_free_sandwich(self, g):
        assume(g.n >= 1 and g.is_connected() and is_twin_free(g))
        rlid = chi_exact(g, "rlid").value
        assert rlid <= chi_exact(g, "lid").value
        assert rlid <= chi_exact(g, "id").value

    @PROPERTY_SETTINGS
    @given(g=graph_with_planted_twins())
    def test_quotient_sandwich(self, g):
        q, part = quotient(g)
        whole = chi_exact(g, "rlid").value
        reduced = chi_exact(q, "rlid").value
        assert reduced - part.t <= whole <= reduced

    @PROPERTY_SETTINGS
    @given(g=small_graph(max_n=5))
    def test_bounds_bracket_the_optimum(self, g):
        assume(g.n >= 1)
        r = bounds_report(g)
        truth = chi_exact(g, "rlid", search_two=True).value
        assert r.best_lower <= truth <= r.best_upper

    @PROPERTY_SETTINGS
    @given(g=small_graph())
    def test_solver_is_deterministic(self, g):
        assume(g.n >= 1)
        a = chi_exact(g, "rlid")
        b = chi_exact(g, "rlid")
        assert a.value == b.value
        assert a.witness == b.witness


class TestIoRoundTrip:
    @PROPERTY_SETTINGS
    @given(g=small_graph())
    def test_edgelist(self, g):
        back = parse_graph_text(write_graph_edgelist(g).decode(), "edgelist")
        assert back.n == g.n
        assert back.adj == g.adj

    @PROPERTY_SETTINGS
    @given(g=small_graph())
    def test_dimacs(self, g):
        back = parse_graph_text(write_graph_dimacs(g).decode(), "dimacs")
        assert back.n == g.n
        assert back.adj == g.adj
