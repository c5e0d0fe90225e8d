"""Desk-scale reproduction gate.

Each numbered test is one headline claim, checked exactly, with a
visible one-line verdict and a wall-clock budget.  The connected-graph
catalog (chi over all labeled connected graphs up to order 6) is built
once and shared by the tests that sweep it.
"""

import random
import sys
import time
from contextlib import contextmanager
from itertools import count

import pytest

from rlid import (
    bounds_report,
    build_graph,
    chi_exact,
    decide_k_proper,
    decide_k_rlid,
    gamma_id_exact,
    characterize_full_palette,
    is_proper,
    is_rlid,
    is_twin_free,
    lower_bound_log_omega,
    max_clique_size,
    quotient,
    random_split_graph,
    split_lower_bound,
    split_rlid_coloring,
    verify_rlid,
)
from rlid.families import (
    bipartite_three_coloring,
    g_star,
    h_p,
    lift_coloring_gstar,
    project_coloring_gstar,
    prop1_graph,
    q1,
    q2,
)
from rlid.graph import bipartition, is_isomorphic, members
from rlid.solvers import enumerate_graphs

from conftest import ACCEPTANCE_VERDICTS
from _helpers import complete
from _oracles import all_labeled_graphs, brute_chi, brute_connected, brute_is_rlid


def _emit(line):
    # recorded for the end-of-run summary (shown outside capture) and
    # echoed immediately so -s runs and failure reports carry it inline
    ACCEPTANCE_VERDICTS.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


@contextmanager
def criterion(num, label, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit("criterion %2d FAIL %-52s %7.1fs" % (num, label, time.perf_counter() - start))
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_s else "FAIL"
    _emit("criterion %2d %s %-52s %7.1fs (budget %ds)"
          % (num, verdict, label, elapsed, limit_s))
    assert elapsed < limit_s, "work finished but blew the %ds budget" % limit_s


@pytest.fixture(scope="module")
def catalog():
    """(graph, chi_rlid, twin_free) for every connected labeled graph n <= 6.

    chi is computed with the two-color search enabled so the no-2 rule
    is observed, not assumed.
    """
    rows = []
    for n in range(1, 7):
        for g in enumerate_graphs(n, lambda g: g.is_connected()):
            chi = chi_exact(g, "rlid", search_two=True).value
            rows.append((g, chi, is_twin_free(g)))
    return rows


def test_criterion_01_power_set_family_values():
    with criterion(1, "2^p clique family: chi and the certified p+1", 5):
        assert chi_exact(h_p(2).graph, "rlid").value == 3
        inst = h_p(3)
        assert lower_bound_log_omega(inst.graph) == 4
        assert len(inst.canonical_coloring.used_colors()) == 4
        assert is_rlid(inst.graph, inst.canonical_coloring)


def test_criterion_02_split_family_values():
    with criterion(2, "split families q1/q2 exact optima", 30):
        assert chi_exact(q1(3).graph, "rlid").value == 4
        assert chi_exact(q2(3).graph, "rlid").value == 4
        assert chi_exact(q2(4).graph, "rlid").value == 5


def test_criterion_03_gadget_equivalence():
    with criterion(3, "3-colorable iff gadget 3-colorable (n <= 5)", 600):
        for n in (3, 4, 5):
            f = lambda g: g.is_connected() and is_twin_free(g)
            for g in enumerate_graphs(n, f):
                base = decide_k_proper(g, 3)
                inst = g_star(g)
                found = decide_k_rlid(inst.graph, 3)
                assert (base is None) == (found is None)
                if base is not None:
                    lifted = lift_coloring_gstar(g, base, 3, inst)
                    assert is_rlid(inst.graph, lifted)
                if found is not None:
                    assert is_proper(g, project_coloring_gstar(inst, found))


def test_criterion_04_bipartite_three_colors():
    with criterion(4, "connected bipartite n <= 6 need three colors", 300):
        for n in (3, 4, 5, 6):
            f = lambda g: g.is_connected() and bipartition(g) is not None
            for g in enumerate_graphs(n, f):
                c, _ = bipartite_three_coloring(g)
                assert is_rlid(g, c)
                assert len(c.used_colors()) <= 3
                assert chi_exact(g, "rlid").value <= 3


def test_criterion_05_one_color_iff_clique_and_never_two(catalog):
    with criterion(5, "value 1 exactly on cliques, value 2 never", 600):
        for g, chi, _ in catalog:
            is_clique = g.edge_count == g.n * (g.n - 1) // 2
            assert (chi == 1) == is_clique
            assert chi != 2


def test_criterion_06_code_bound(catalog):
    with criterion(6, "chi at most minimum code size + 1", 600):
        for g, chi, twin_free in catalog:
            if not twin_free:
                continue
            assert chi <= gamma_id_exact(g).value + 1


def _planted_twin_graph(seed):
    """Connected graph on <= 7 vertices with at least one cloned vertex."""
    rng = random.Random(seed)
    while True:
        base_n = rng.randint(3, 6)
        edges = [
            (u, v)
            for u in range(base_n)
            for v in range(u + 1, base_n)
            if rng.random() < 0.5
        ]
        g = build_graph(base_n, edges)
        if g.is_connected():
            break
    for _ in range(rng.randint(1, 7 - base_n)):
        x = rng.randrange(g.n)
        new_edges = list(g.edges())
        new_edges += [(v, g.n) for v in members(g.closed[x])]
        g = build_graph(g.n + 1, new_edges)
    return g


def test_criterion_07_quotient_sandwich():
    with criterion(7, "chi within t of the twin-quotient's chi", 600):
        for seed in range(1, 201):
            g = _planted_twin_graph(seed)
            assert g.n <= 7 and g.is_connected() and not is_twin_free(g)
            q, part = quotient(g)
            whole = chi_exact(g, "rlid").value
            reduced = chi_exact(q, "rlid").value
            assert reduced - part.t <= whole <= reduced


def test_criterion_08_split_sandwich_and_conjecture_tally():
    with criterion(8, "split sandwich on 50 seeded instances", 900):
        held = 0
        used = 0
        for seed in count(1):
            g, part = random_split_graph(seed, 3, 5, 0.45, twin_free=True)
            omega = max_clique_size(g)
            if omega > 4 or g.n > 9 or not g.is_connected():
                continue
            used += 1
            chi = chi_exact(g, "rlid").value
            assert split_lower_bound(g, part) <= chi <= omega + 2
            c = split_rlid_coloring(g, part)
            assert is_rlid(g, c)
            assert len(c.used_colors()) <= omega + 2
            if chi <= omega + 1:
                held += 1
            if used == 50:
                break
        _emit("            note: chi <= omega+1 held on %d/50 split instances" % held)


def test_criterion_09_full_palette_characterization(catalog):
    with criterion(9, "structural test for chi = n agrees with solver", 600):
        for g, chi, twin_free in catalog:
            if not twin_free:
                continue
            assert characterize_full_palette(g) == (chi == g.n)
            if chi == g.n:
                # k = n is never searched: the order's rainbow closes it
                for res in (chi_exact(g, "rlid"), chi_exact(g, "rlid", search_two=True)):
                    assert res.stats.upper_by == "order-n"
                    assert all(k < g.n for k, _ in res.stats.per_k)
                    assert verify_rlid(g, res.witness).valid


def test_criterion_10_twin_expansion_instance():
    with criterion(10, "59-vertex twin-expansion instance verifies", 1):
        inst = prop1_graph(4)
        assert inst.graph.n == 59
        assert len(inst.canonical_coloring.used_colors()) == 4
        assert is_rlid(inst.graph, inst.canonical_coloring)
        q, part = quotient(inst.graph)
        assert part.t == 3
        assert is_isomorphic(q, g_star(complete(7)).graph)


def test_criterion_11_oracle_agreement():
    with criterion(11, "solver equals brute-force minimum (n <= 5)", 300):
        for n in range(1, 6):
            for edges in all_labeled_graphs(n):
                if not brute_connected(n, edges):
                    continue
                g = build_graph(n, edges)
                want = brute_chi(n, edges, brute_is_rlid)
                assert chi_exact(g, "rlid", search_two=True).value == want


def test_bounds_bracket_everything(catalog):
    # module invariant rider on the shared catalog, not a numbered criterion
    for g, chi, _ in catalog:
        r = bounds_report(g)
        assert r.best_lower <= chi <= r.best_upper
