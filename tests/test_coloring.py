"""Coloring container and the five verification modes."""

import dataclasses
import itertools
import random

import pytest

from rlid import (
    Coloring,
    ColoringError,
    GraphError,
    Violation,
    build_graph,
    is_id,
    is_identifying_code,
    is_lid,
    is_proper,
    is_rlid,
    neighborhood_color_set,
    verify_id,
    verify_identifying_code,
    verify_lid,
    verify_proper,
    verify_rlid,
    write_result,
)
from rlid.coloring import quotient_three_coloring
from rlid.graph import Graph

from _helpers import blow_up, complete, cycle, grid, path, star_graph
from _oracles import (
    all_labeled_graphs,
    brute_is_id,
    brute_is_id_code,
    brute_is_lid,
    brute_is_proper,
    brute_is_rlid,
    reference_quotient_three_coloring,
    reference_violations,
)


class TestColoringContainer:
    def test_palette_defaults_to_max_color(self):
        c = Coloring([1, 3, 2])
        assert c.palette == 3

    def test_palette_below_max_color_rejected(self):
        with pytest.raises(ColoringError):
            Coloring([1, 3], palette=2)

    def test_non_positive_color_rejected(self):
        for colors in ([1, 0, 2], [True, 2], [1, -3], [2, "1"], [1.0, 2], [False]):
            with pytest.raises(ColoringError):
                Coloring(colors)

    def test_immutable_value_semantics(self):
        assert Coloring([1, 2]) == Coloring([1, 2])
        assert Coloring([1, 2]) != Coloring([1, 2], palette=3)


class TestNeighborhoodColorSet:
    def test_monochrome_p3(self):
        g = path(3)
        assert neighborhood_color_set(g, Coloring([1, 1, 1]), 1) == {1}

    def test_star_center_sees_all_three(self):
        g = star_graph(3)
        c = Coloring([1, 2, 3, 3])
        assert neighborhood_color_set(g, c, 0) == {1, 2, 3}

    def test_c4_duplicates_collapse(self):
        g = cycle(4)
        c = Coloring([1, 2, 1, 3])
        assert neighborhood_color_set(g, c, 0) == {1, 2, 3}

    # Every condition is written once; the boolean and the report must
    # agree with each other and with the independent brute force.
    CONDITIONS = [
        (is_proper, verify_proper, brute_is_proper),
        (is_rlid, verify_rlid, brute_is_rlid),
        (is_lid, verify_lid, brute_is_lid),
        (is_id, verify_id, brute_is_id),
    ]

    @pytest.mark.parametrize("is_x,verify_x,brute", CONDITIONS, ids=["proper", "rlid", "lid", "id"])
    def test_boolean_report_and_oracle_agree_up_to_order_four(self, is_x, verify_x, brute):
        for n in range(5):
            for edges in all_labeled_graphs(n):
                g = build_graph(n, edges)
                for colors in itertools.product(range(1, 4), repeat=n):
                    c = Coloring(colors)
                    want = brute(n, edges, list(colors))
                    assert is_x(g, c) == verify_x(g, c).valid == want, (edges, colors)

    def test_identifying_code_agrees_with_oracle_up_to_order_four(self):
        for n in range(5):
            for edges in all_labeled_graphs(n):
                g = build_graph(n, edges)
                for size in range(n + 1):
                    for code in itertools.combinations(range(n), size):
                        want = brute_is_id_code(n, edges, set(code))
                        got = verify_identifying_code(g, code).valid
                        assert is_identifying_code(g, code) == got == want, (edges, code)

    @pytest.mark.parametrize("check", [is_identifying_code, verify_identifying_code])
    def test_out_of_range_code_vertex_rejected(self, check):
        with pytest.raises(GraphError):
            check(path(3), [0, 1, 2, 7])


class TestVerifyRlid:
    def test_c4_three_colors_valid(self):
        report = verify_rlid(cycle(4), Coloring([1, 2, 1, 3]))
        assert report.valid
        assert report.mode == "rlid"
        assert report.violations == ()

    def test_c4_monochrome_has_four_violations(self):
        report = verify_rlid(cycle(4), Coloring([1, 1, 1, 1]))
        assert not report.valid
        assert len(report.violations) == 4

    @pytest.mark.parametrize("n", range(2, 6))
    def test_complete_graph_monochrome_valid(self, n):
        # every adjacent pair is a twin pair, so nothing needs separating
        assert verify_rlid(complete(n), Coloring([1] * n)).valid

    def test_violations_recheckable(self):
        g = path(4)
        c = Coloring([1, 2, 2, 1])
        report = verify_rlid(g, c)
        for v in report.violations:
            assert g.has_edge(v.u, v.v) == v.adjacent
            assert (
                neighborhood_color_set(g, c, v.u)
                == neighborhood_color_set(g, c, v.v)
            )


class TestVerifyLid:
    def test_p4_report_matches_direct_evaluation(self):
        g = path(4)
        c = Coloring([2, 1, 3, 1])
        report = verify_lid(g, c)
        assert report.valid == brute_is_lid(4, list(g.edges()), [2, 1, 3, 1])

    def test_triangle_blocked_by_twins(self):
        report = verify_lid(complete(3), Coloring([1, 2, 3]))
        assert not report.valid
        assert any(v.kind == "twins" for v in report.violations)

    def test_c4_three_colors_valid(self):
        assert verify_lid(cycle(4), Coloring([1, 2, 1, 3])).valid


class TestVerifyId:
    def test_p3_rainbow_valid(self):
        assert verify_id(path(3), Coloring([1, 2, 3])).valid

    def test_p3_endpoints_clash(self):
        report = verify_id(path(3), Coloring([1, 2, 1]))
        assert not report.valid
        assert any({v.u, v.v} == {0, 2} for v in report.violations)

    def test_k2_twins_block_id(self):
        assert not verify_id(complete(2), Coloring([1, 2])).valid


class TestVerifyProper:
    def test_k2_two_colors(self):
        assert verify_proper(complete(2), Coloring([1, 2])).valid

    def test_k2_monochrome(self):
        assert not verify_proper(complete(2), Coloring([1, 1])).valid

    def test_c5_standard_coloring(self):
        assert verify_proper(cycle(5), Coloring([1, 2, 1, 2, 3])).valid


class TestVerifyIdentifyingCode:
    def test_p4_inner_code_valid(self):
        assert verify_identifying_code(path(4), {1, 2, 3}).valid

    def test_p4_endpoints_fail(self):
        report = verify_identifying_code(path(4), {0, 3})
        assert not report.valid
        assert report.mode == "id-code"

    def test_k2_never_separable(self):
        for code in ({0}, {1}, {0, 1}):
            assert not verify_identifying_code(complete(2), code).valid


class TestAgainstOracle:
    """Spot agreement between verifiers and the brute-force reference."""

    CASES = [
        (path(4), [1, 2, 3, 1]),
        (path(4), [1, 1, 2, 2]),
        (cycle(5), [1, 2, 1, 2, 3]),
        (cycle(6), [1, 2, 3, 1, 2, 3]),
        (star_graph(4), [1, 2, 3, 3, 3]),
        (complete(4), [1, 1, 1, 1]),
    ]

    @pytest.mark.parametrize("g,colors", CASES)
    def test_rlid_matches(self, g, colors):
        edges = list(g.edges())
        assert is_rlid(g, Coloring(colors)) == brute_is_rlid(g.n, edges, colors)

    @pytest.mark.parametrize("g,colors", CASES)
    def test_id_matches(self, g, colors):
        edges = list(g.edges())
        assert verify_id(g, Coloring(colors)).valid == brute_is_id(g.n, edges, colors)


class TestViolationRecord:
    def test_slots_equality_and_hash(self):
        a = Violation(1, 2, True, "colorset", frozenset({1, 2}))
        b = Violation(1, 2, True, "colorset", frozenset({2, 1}))
        assert not hasattr(a, "__dict__")
        assert a == b and a != Violation(1, 2, False, "colorset", frozenset({1, 2}))
        # the field tuple's hash, as the dict-backed dataclass had
        assert hash(a) == hash(b) == hash((1, 2, True, "colorset", frozenset({1, 2})))
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.u = 0

    def test_verify_json_bytes(self):
        report = verify_rlid(path(4), Coloring([1, 1, 2, 2]))
        assert write_result(report, "json") == (
            b'{\n  "mode": "rlid",\n  "valid": false,\n  "violations": [\n    {\n'
            b'      "adjacent": true,\n      "kind": "colorset",\n      "u": 1,\n'
            b'      "v": 2,\n      "witness": [\n        1,\n        2\n      ]\n'
            b'    }\n  ]\n}\n'
        )


class TestViolationTuplesMatchReference:
    """Every verifier reports exactly the pair-scan reference's
    violations: the same pairs, kinds, witnesses and order."""

    COLORING_VERIFIERS = {
        "proper": verify_proper,
        "rlid": verify_rlid,
        "lid": verify_lid,
        "id": verify_id,
    }

    @staticmethod
    def tuples(report):
        return [(x.u, x.v, x.adjacent, x.kind, x.witness) for x in report.violations]

    def check(self, n, edges, colors, code):
        g = build_graph(n, edges)
        c = Coloring(colors)
        for mode, verify in self.COLORING_VERIFIERS.items():
            want = reference_violations(mode, n, edges, colors=colors)
            assert self.tuples(verify(g, c)) == want, (mode, edges, colors)
        want = reference_violations("code", n, edges, code=code)
        assert self.tuples(verify_identifying_code(g, code)) == want, (edges, code)

    def test_every_labeled_graph_up_to_order_five(self):
        rng = random.Random(11)
        for n in range(6):
            for edges in all_labeled_graphs(n):
                for scale in (1, 10**12):
                    k = rng.randint(1, max(n, 1))
                    colors = [scale * rng.randint(1, k) for _ in range(n)]
                    code = [v for v in range(n) if rng.random() < 0.6]
                    self.check(n, edges, colors, code)

    def test_sparse_graph_of_three_thousand_vertices(self):
        rng = random.Random(5)
        n = 3000
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < 2 * n:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        edges = sorted(edges)
        colors = [rng.randint(1, 12) for _ in range(n)]
        code = [v for v in range(n) if rng.random() < 0.5]
        self.check(n, edges, colors, code)


def _shuffled_blow_up(rng, n):
    """A random graph on n vertices, bipartite with probability about
    0.7, each vertex replaced by a clique of 1 to 3 twins and the
    vertices relabeled at random."""
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if (u - v) % 2 and rng.random() < 0.4]
    if rng.random() < 0.3:
        edges += [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.1]
    size = [rng.randint(1, 3) for _ in range(n)]
    first = list(itertools.accumulate([0] + size))
    label = list(range(first[-1]))
    rng.shuffle(label)
    pairs = [(first[v] + i, first[v] + j) for v in range(n)
             for i, j in itertools.combinations(range(size[v]), 2)]
    pairs += [(first[u] + i, first[v] + j) for u, v in edges
              for i in range(size[u]) for j in range(size[v])]
    return build_graph(first[-1], [(label[a], label[b]) for a, b in pairs])


class TestQuotientThreeColoring:
    """One level walk per component of g gives the lift of each
    component quotient's level coloring, without building a quotient."""

    @pytest.mark.parametrize("n", range(7))
    def test_every_labeled_graph_matches_the_lifted_quotient_coloring(self, n):
        closed = one_color = 0
        for edges in all_labeled_graphs(n):
            g = build_graph(n, edges)
            found = quotient_three_coloring(g)
            expected = reference_quotient_three_coloring(g)
            assert (None if found is None else found.colors) == expected, edges
            closed += found is not None
            one_color += found is not None and found.palette == 1
        assert closed == {0: 1, 1: 1, 2: 2, 3: 8, 4: 64, 5: 757, 6: 11924}[n]
        # the clique unions, one per set partition: the Bell numbers
        assert one_color == {0: 0, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}[n]

    def test_shuffled_blow_ups_match_the_lifted_quotient_coloring(self):
        rng = random.Random(28)
        closed = 0
        for _ in range(1500):
            g = _shuffled_blow_up(rng, rng.randint(3, 12))
            found = quotient_three_coloring(g)
            expected = reference_quotient_three_coloring(g)
            assert (None if found is None else found.colors) == expected, g.edges()
            closed += found is not None
        assert closed > 300

    def test_a_bipartite_graph_builds_no_closed_masks(self):
        g = grid(6, 7)
        found = quotient_three_coloring(g)
        with pytest.raises(AttributeError):
            Graph.closed.__get__(g)
        assert found.colors == reference_quotient_three_coloring(g)

    def test_a_clique_union_gets_one_color(self):
        k4_and_two_k2 = blow_up(build_graph(4, [(0, 1)]), 2)
        for g in (blow_up(complete(2), 3), k4_and_two_k2):
            found = quotient_three_coloring(g)
            assert (found.colors, found.palette) == ((1,) * g.n, 1)

    def test_each_component_is_colored_on_its_own(self):
        two_p4 = blow_up(build_graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]), 2)
        found = quotient_three_coloring(two_p4)
        assert found.colors == reference_quotient_three_coloring(two_p4)
        assert found.colors == (1, 1, 2, 2, 3, 3, 3, 3) * 2

    @pytest.mark.parametrize(
        "g",
        [
            blow_up(cycle(5), 2),
            build_graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6), (6, 7), (7, 8)]),
        ],
        ids=["C5 x2", "C5 + P4"],
    )
    def test_other_graphs_give_none(self, g):
        # an odd-cycle quotient, alone or next to a bipartite component
        assert quotient_three_coloring(g) is None
