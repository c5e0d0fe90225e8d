"""File formats, result serialization, DOT export, and the CLI surface."""

import argparse
import concurrent.futures
import contextlib
import json
import logging
import random
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rlid import (
    Budget,
    Coloring,
    SolveResult,
    SolveStats,
    bounds_report,
    build_graph,
    chi_exact,
    export_dot,
    gamma_id_exact,
    is_twin_free,
    parse_coloring_file,
    parse_graph_file,
    parse_graph_text,
    parse_vertex_set_file,
    random_split_graph,
    verify_id,
    verify_identifying_code,
    verify_lid,
    verify_proper,
    verify_rlid,
    write_graph_dimacs,
    write_graph_edgelist,
    write_result,
)
from rlid import cli
from rlid.cli import main
from rlid.families import g_star, h_p, power_path, prop1_graph, q1, q2, star
from rlid.graph import edge_mask
from rlid.io import MAX_ORDER, ParseError, _jsonable

from _helpers import blow_up, cycle, grid, path, star_graph, threshold_graph
from _oracles import all_labeled_graphs

P4_EDGELIST = "4\n0 1\n1 2\n2 3\n"
C5_EDGELIST = "5\n0 1\n1 2\n2 3\n3 4\n4 0\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@contextlib.contextmanager
def _int_str_digits(limit):
    """Python's int-to-str digit limit set to ``limit`` (0: none) inside."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestParsing:
    def test_dimacs_p3(self):
        g = parse_graph_text("p edge 3 2\ne 1 2\ne 2 3\n", "dimacs")
        assert g.n == 3
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_edgelist_p4(self):
        g = parse_graph_text(P4_EDGELIST, "edgelist")
        assert g.adj == path(4).adj

    def test_edgelist_comments_ignored(self):
        g = parse_graph_text("# a path\n4\n0 1\n1 2\n# trailing\n2 3\n", "edgelist")
        assert g.adj == path(4).adj

    def test_dimacs_vertex_out_of_range_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph_text("p edge 3 1\ne 1 4\n", "dimacs")

    def test_dimacs_strict_edge_count(self):
        with pytest.raises(ParseError):
            parse_graph_text("p edge 3 5\ne 1 2\n", "dimacs")
        g = parse_graph_text("p edge 3 5\ne 1 2\n", "dimacs", strict=False)
        assert g.edge_count == 1

    def test_dimacs_malformed_header(self):
        with pytest.raises(ParseError):
            parse_graph_text("p vertex 3 2\ne 1 2\n", "dimacs")

    def test_duplicate_edges_collapse_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="rlid.io"):
            g = parse_graph_text("3\n0 1\n1 0\n1 2\n", "edgelist")
        assert g.edge_count == 2
        assert any("duplicate" in r.message for r in caplog.records)

    def test_file_round_trip_both_formats(self, tmp_path):
        for g in (path(4), cycle(6), h_p(2).graph):
            for fmt, writer in (
                ("edgelist", write_graph_edgelist),
                ("dimacs", write_graph_dimacs),
            ):
                p = tmp_path / ("g." + fmt)
                for comments in ((), ("a comment",)):
                    p.write_bytes(writer(g, comments))
                    back = parse_graph_file(str(p), fmt)
                    assert back.n == g.n
                    assert back.adj == g.adj
                    assert parse_graph_file(str(p), "auto") == back

    def test_coloring_file(self, tmp_path):
        p = _write(tmp_path, "c.txt", "0 1\n1 2\n2 3\n3 1\n")
        c = parse_coloring_file(p, 4)
        assert c.colors == (1, 2, 3, 1)

    def test_coloring_file_must_be_total(self, tmp_path):
        p = _write(tmp_path, "c.txt", "0 1\n1 2\n")
        with pytest.raises(ParseError):
            parse_coloring_file(p, 3)

    def test_coloring_file_rejects_duplicates(self, tmp_path):
        p = _write(tmp_path, "c.txt", "0 1\n0 2\n1 1\n")
        with pytest.raises(ParseError):
            parse_coloring_file(p, 2)

    def test_vertex_set_file(self, tmp_path):
        p = _write(tmp_path, "s.txt", "1 2\n3\n")
        assert parse_vertex_set_file(p, 4) == frozenset({1, 2, 3})


class TestWriteResult:
    def test_solve_result_json(self):
        res = chi_exact(cycle(5), "rlid")
        obj = json.loads(write_result(res, "json"))
        assert obj["parameter"] == "rlid"
        assert obj["value"] == 4
        assert obj["status"] == "exact"
        assert len(obj["witness"]) == 5
        assert obj["stats"]["nodes"] >= 1
        assert obj["stats"]["lower_by"] == "search-infeasible"
        assert obj["stats"]["upper_by"] == "search-witness"
        # P4 is connected bipartite: closed by the level coloring, no search
        obj = json.loads(write_result(chi_exact(path(4), "rlid"), "json"))
        assert (obj["value"], obj["status"], len(obj["witness"])) == (3, "exact", 4)
        assert obj["stats"] == {"clique": 0, "lower_by": "no-two-rule", "nodes": 0,
                                "per_k": [], "upper_by": "bipartite-3"}

    def test_lower_by_and_upper_by_in_every_format(self):
        res = chi_exact(path(4), "rlid")
        assert b"# nodes=0 lower_by=no-two-rule upper_by=bipartite-3\n" in write_result(res, "plain")
        head, row = write_result(res, "tsv").decode().split("\n")[:2]
        fields = dict(zip(head.split("\t"), row.split("\t")))
        assert (fields["stats.lower_by"], fields["stats.upper_by"]) == ('"no-two-rule"', '"bipartite-3"')
        stop = chi_exact(cycle(5), "rlid", Budget(1))
        stats = json.loads(write_result(stop, "json"))["stats"]
        assert (stats["lower_by"], stats["upper_by"]) == (None, None)
        assert b"_by" not in write_result(stop, "plain")

    def test_solve_result_json_has_per_k_rows_and_clique(self):
        res = chi_exact(h_p(4).graph, "rlid")
        obj = json.loads(write_result(res, "json"))
        assert obj["stats"]["per_k"] == [list(row) for row in res.stats.per_k]
        assert sum(nodes for _, nodes in obj["stats"]["per_k"]) == obj["stats"]["nodes"]
        assert obj["stats"]["clique"] == 16
        # node counts only: the same solve serializes to the same bytes
        assert write_result(chi_exact(h_p(4).graph, "rlid"), "json") == write_result(res, "json")

    def test_bounds_report_json(self):
        obj = json.loads(write_result(bounds_report(path(4)), "json"))
        assert obj["bounds"]["lower"]
        assert obj["bounds"]["upper"]
        assert obj["exact"] == 3

    def test_verification_report_json(self):
        rep = verify_rlid(cycle(4), Coloring([1, 1, 1, 1]))
        obj = json.loads(write_result(rep, "json"))
        assert obj["valid"] is False
        assert len(obj["violations"]) == 4

    def test_tsv_shape(self):
        res = chi_exact(path(4), "rlid")
        rows = write_result(res, "tsv").decode().strip().split("\n")
        assert len(rows) == 2  # header + one row

    def test_byte_determinism(self):
        a = write_result(chi_exact(cycle(5), "rlid"), "json")
        b = write_result(chi_exact(cycle(5), "rlid"), "json")
        assert a == b


def _sparse_graph(rng, n):
    """A random spanning tree plus random extra edges, 2n edges in all."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 2 * n:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return build_graph(n, edges)


_COLORING_VERIFIERS = (verify_rlid, verify_lid, verify_proper, verify_id)


class TestJsonTemplates:
    """The JSON writer lays out violations and solve witnesses with
    templates; its bytes must be those of the indenting json encoder."""

    @staticmethod
    def _reference(report):
        return (json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n").encode()

    @staticmethod
    def _reports(g, colorings, code):
        for colors in colorings:
            for verify in _COLORING_VERIFIERS:
                yield verify(g, Coloring(colors))
        yield verify_identifying_code(g, range(g.n))
        yield verify_identifying_code(g, code)

    def test_json_bytes_match_the_json_encoder(self):
        rng = random.Random(13)
        cases = []
        for n in range(6):
            for edges in all_labeled_graphs(n):
                g = build_graph(n, edges)
                colorings = (range(1, n + 1), [1] * n, [rng.randint(1, 3) for _ in range(n)])
                cases.append((g, colorings, [v for v in range(n) if rng.random() < 0.5]))
        for _ in range(3):
            g = _sparse_graph(rng, 1000)
            # 40 colours keep id's equal colour-set pairs to a few hundred
            colorings = (range(1, 1001), [rng.randint(1, 40) for _ in range(1000)])
            cases.append((g, colorings, [v for v in range(1000) if rng.random() < 0.5]))
        seen = set()
        for g, colorings, code in cases:
            for report in self._reports(g, colorings, code):
                assert write_result(report, "json") == self._reference(report), (g, report.mode)
                seen.add((report.mode, report.valid))
                seen.update((report.mode, x.kind, bool(x.witness)) for x in report.violations)
        for mode in ("rlid", "lid", "proper", "id", "id-code"):
            assert (mode, True) in seen and (mode, False) in seen, mode
        assert ("id-code", "undominated", False) in seen
        assert ("lid", "twins", True) in seen and ("id", "twins", True) in seen

    def test_solve_json_bytes_match_the_json_encoder(self):
        """Solve results lay out their witness with the same template:
        colorings, code sets, empty witnesses and budget stops."""
        results = []
        for n in range(5):
            for edges in all_labeled_graphs(n):
                g = build_graph(n, edges)
                for parameter in ("rlid", "chromatic"):
                    results.append(chi_exact(g, parameter))
                if is_twin_free(g):
                    results += [chi_exact(g, "id"), gamma_id_exact(g)]
        results += [chi_exact(h_p(3).graph, "rlid", Budget(1)), chi_exact(path(100), "rlid")]
        assert {r.status for r in results} == {"exact", "budget-exceeded"}
        for r in results:
            assert write_result(r, "json") == self._reference(r), r

    def test_witness_rows_match_the_json_encoder(self):
        """One template row per [v, c] pair: multi-digit vertices and
        colors, a lifted twin-quotient coloring, and vertex-set witnesses."""
        rng = random.Random(28)
        witnesses = [
            Coloring(()),
            Coloring([7]),
            Coloring(range(1, 101)),
            Coloring([rng.randint(1, 12) for _ in range(1500)]),
            chi_exact(blow_up(grid(5, 5), 2), "rlid").witness,
            frozenset(),
            frozenset({0, 7, 1234}),
        ]
        for witness in witnesses:
            stats = SolveStats(0, lower_by="no-two-rule", upper_by="search-witness")
            r = SolveResult("rlid", 3, witness, "exact", stats)
            expected = json.dumps(_jsonable(r), sort_keys=True, indent=2) + "\n"
            assert write_result(r, "json") == expected.encode(), witness

    def test_empty_witness_and_empty_violation_list(self):
        rep = verify_identifying_code(path(3), [0])
        assert write_result(rep, "json") == self._reference(rep) == (
            b'{\n  "mode": "id-code",\n  "valid": false,\n  "violations": [\n    {\n'
            b'      "adjacent": false,\n      "kind": "undominated",\n      "u": 2,\n'
            b'      "v": 2,\n      "witness": []\n    },\n    {\n      "adjacent": true,\n'
            b'      "kind": "code-equal",\n      "u": 0,\n      "v": 1,\n      "witness": [\n'
            b'        0\n      ]\n    }\n  ]\n}\n'
        )
        rep = verify_rlid(path(4), Coloring([1, 2, 3, 4]))
        assert rep.valid and write_result(rep, "json") == self._reference(rep) == (
            b'{\n  "mode": "rlid",\n  "valid": true,\n  "violations": []\n}\n'
        )

    def test_tsv_is_unchanged(self):
        rep = verify_rlid(path(4), Coloring([1, 2, 2, 1]))
        assert write_result(rep, "tsv") == (
            b'mode\tvalid\tviolations\n"rlid"\tfalse\t[{"adjacent": true, "kind": "colorset", '
            b'"u": 0, "v": 1, "witness": [1, 2]}, {"adjacent": true, "kind": "colorset", '
            b'"u": 1, "v": 2, "witness": [1, 2]}, {"adjacent": true, "kind": "colorset", '
            b'"u": 2, "v": 3, "witness": [1, 2]}]\n'
        )
        rep = verify_identifying_code(path(3), [0])
        assert write_result(rep, "tsv") == (
            b'mode\tvalid\tviolations\n"id-code"\tfalse\t[{"adjacent": false, '
            b'"kind": "undominated", "u": 2, "v": 2, "witness": []}, {"adjacent": true, '
            b'"kind": "code-equal", "u": 0, "v": 1, "witness": [0]}]\n'
        )


class TestLargeSparseVerify:
    def test_parse_verify_and_write_a_50000_vertex_path_in_little_memory(self):
        """Parsing, four verifiers and the JSON writer stay linear on a
        50,000-vertex path with shuffled labels: no n-bit masks, so the
        traced peak stays far below the n^2/4 bytes the masks would take."""
        n = 50_000
        order = list(range(n))
        random.Random(5).shuffle(order)
        text = "%d\n%s\n" % (n, "\n".join("%d %d" % (order[i], order[i + 1]) for i in range(n - 1)))
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        alternating = Coloring([1 + position[v] % 2 for v in range(n)])
        rainbow = Coloring([1 + position[v] for v in range(n)])
        code = [v for v in range(n) if position[v] % 3 == 1]
        tracemalloc.start()
        try:
            g = parse_graph_text(text, "edgelist")
            counts = []
            for verify, certificate in (
                (verify_rlid, alternating),
                (verify_lid, alternating),
                (verify_id, rainbow),
                (verify_identifying_code, code),
            ):
                report = verify(g, certificate)
                assert write_result(report, "json").startswith(b'{\n  "mode": ')
                counts.append(len(report.violations))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every closed neighbourhood sees both colours; each code triple
        # p(3j), p(3j+1), p(3j+2) meets the code in p(3j+1) alone
        assert counts == [n - 1, n - 1, 0, 49_999]
        assert peak < 100 * 2**20, peak


class TestExportDot:
    def test_p3_structure(self):
        text = export_dot(path(3)).decode()
        assert text.startswith("graph G {")
        assert text.rstrip().endswith("}")
        assert "0 -- 1;" in text and "1 -- 2;" in text

    def test_h2_three_fills(self):
        inst = h_p(2)
        text = export_dot(inst.graph, inst.canonical_coloring).decode()
        fills = {
            line.split('fillcolor="')[1].split('"')[0]
            for line in text.splitlines()
            if "fillcolor" in line
        }
        assert len(fills) == 3

    def test_many_colors_cycle_fills_but_keep_labels(self):
        g = star_graph(13)
        c = Coloring(list(range(1, 15)))
        text = export_dot(g, c).decode()
        assert '"13:14"' in text or "13:14" in text
        fills = [
            line.split('fillcolor="')[1].split('"')[0]
            for line in text.splitlines()
            if "fillcolor" in line
        ]
        assert len(fills) == 14
        assert len(set(fills)) <= 12


_TOOLTIP = re.compile(r'  (\d+) \[.*tooltip="([^"]*)"\];')


def _tooltips(dot: str) -> dict:
    return {int(m.group(1)): m.group(2) for m in _TOOLTIP.finditer(dot)}


class TestDotTooltips:
    """A graph carries no roles: the DOT tooltips come from the
    FamilyInstance the command built, and only from one."""

    @pytest.mark.parametrize(
        "family,size,inst",
        [
            ("star", 3, lambda: star(3)),
            ("power-path", 3, None),
            ("hp", 2, lambda: h_p(2)),
            ("q1", 3, lambda: q1(3)),
            ("q2", 3, lambda: q2(3)),
            ("prop1", 4, lambda: prop1_graph(4)),
            ("gstar", None, lambda: g_star(path(4))),
        ],
    )
    def test_construct_dot_tooltips_are_the_instance_roles(
        self, tmp_path, capsys, family, size, inst
    ):
        argv = ["construct", family, "-o", "dot"]
        if size is None:
            argv += ["-i", _write(tmp_path, "p4.txt", P4_EDGELIST)]
        else:
            argv += ["--size", str(size)]
        assert main(argv) == 0
        tips = _tooltips(capsys.readouterr().out)
        if inst is None:
            roles = {v: "p:%d" % v for v in range(power_path(size).n)}
        else:
            roles = inst().roles
        assert tips == roles and len(tips) >= 4

    def test_lift_dot_tooltips_are_the_gadget_roles(self, tmp_path, capsys):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        cert = _write(tmp_path, "proper.txt", "0 1\n1 2\n2 1\n3 2\n")
        argv = ["reduce", "-i", p, "--action", "lift", "--certificate", cert, "--k", "3"]
        assert main(argv + ["-o", "dot"]) == 0
        assert _tooltips(capsys.readouterr().out) == g_star(path(4)).roles

    @pytest.mark.parametrize(
        "argv", [["decide", "--k", "3"], ["decide", "--k", "1"], ["quotient"]]
    )
    def test_parsed_graph_dot_has_no_tooltip(self, tmp_path, capsys, argv):
        p = _write(tmp_path, "twins.txt", "5\n0 1\n0 2\n1 2\n2 3\n3 4\n")
        main(argv + ["-i", p, "-o", "dot"])
        out = capsys.readouterr().out
        assert out.startswith("graph G {") and "tooltip" not in out


class TestPlainWriter:
    """The CLI's plain text is ``write_result(x, "plain")``."""

    @pytest.mark.parametrize("parameter", ["rlid", "chromatic", "gammaid"])
    def test_solve(self, tmp_path, capsys, parameter):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        assert main(["solve", "-i", p, "--parameter", parameter]) == 0
        if parameter == "gammaid":
            res = gamma_id_exact(path(4))
        else:
            res = chi_exact(path(4), parameter)
        assert capsys.readouterr().out.encode() == write_result(res, "plain")

    def test_unresolved_solve(self, tmp_path, capsys):
        p = _write(tmp_path, "c5.txt", C5_EDGELIST)
        assert main(["solve", "-i", p, "--node-budget", "1"]) == 3
        out = capsys.readouterr().out
        assert out.startswith("rlid unresolved: node budget exhausted\n")
        assert out.encode() == write_result(chi_exact(cycle(5), "rlid", Budget(1)), "plain")
        # P4 is closed without a search, so one node is enough
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        assert main(["solve", "-i", p, "--node-budget", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("rlid = 3\n# nodes=0 lower_by=no-two-rule upper_by=bipartite-3\n")
        assert out.encode() == write_result(chi_exact(path(4), "rlid", Budget(1)), "plain")

    @pytest.mark.parametrize(
        "mode,cert,code",
        [("rlid", "0 3\n1 2\n2 1\n3 1\n", 0), ("rlid", "0 1\n1 1\n2 2\n3 2\n", 1),
         ("proper", "0 1\n1 1\n2 2\n3 2\n", 1), ("code", "0 1 2 3\n", 0), ("code", "1\n", 1)],
    )
    def test_verify(self, tmp_path, capsys, mode, cert, code):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        c = _write(tmp_path, "cert.txt", cert)
        assert main(["verify", "-i", p, "--mode", mode, "--certificate", c]) == code
        if mode == "code":
            report = verify_identifying_code(path(4), parse_vertex_set_file(c, 4))
        else:
            verifier = {"rlid": verify_rlid, "proper": verify_proper}[mode]
            report = verifier(path(4), parse_coloring_file(c, 4))
        out = capsys.readouterr().out
        assert out.encode() == write_result(report, "plain")
        assert out.startswith("%s: %s\n" % (report.mode, "valid" if code == 0 else "invalid"))

    def test_bounds(self, tmp_path, capsys):
        p = _write(tmp_path, "c5.txt", "5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        assert main(["bounds", "-i", p]) == 0
        out = capsys.readouterr().out
        assert out.encode() == write_result(bounds_report(cycle(5)), "plain")
        assert "best: " in out

    def test_coloring_with_comments_parses_back(self, tmp_path):
        c = Coloring([3, 1, 2, 1, 12])
        data = write_result(c, "plain", ["root 0, 2 levels", "clique 1 2"])
        assert data.startswith(b"# root 0, 2 levels\n# clique 1 2\n0 3\n")
        p = tmp_path / "c.txt"
        p.write_bytes(data)
        assert parse_coloring_file(str(p), 5).colors == c.colors

    def test_decided_coloring_round_trips_through_verify(self, tmp_path, capsys):
        g = _write(tmp_path, "star.col", "c star\np edge 4 3\ne 1 2\ne 1 3\ne 1 4\n")
        dec = str(tmp_path / "dec.txt")
        assert main(["decide", "--k", "3", "-i", g, "--out", dec]) == 0
        assert main(["verify", "-i", g, "--certificate", dec]) == 0
        assert capsys.readouterr().out == "rlid: valid\n"

    def test_a_dict_is_written_as_json(self):
        obj = {"k": 2, "coloring": None, "parameter": "rlid"}
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert write_result(obj, "json") == expected.encode()


class TestCli:
    def test_construct_hp_dot(self, capsys):
        assert main(["construct", "hp", "--p", "2", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.count("--") == h_p(2).graph.edge_count
        assert out.count("label=") == 10

    def test_solve_param_rlid_on_p4(self, tmp_path, capsys):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        assert main(["solve", "--param", "rlid", "-i", p]) == 0
        out = capsys.readouterr().out
        assert "rlid = 3" in out
        # stdout stays byte-reproducible: node counts, no wall time
        assert "# nodes=" in out and "wall_ms" not in out

    def test_auto_detection_reads_content_not_extension(self, tmp_path, capsys):
        # construct output saved under a dimacs-ish name must still load
        p = _write(tmp_path, "misleading.col", "# emitted by construct\n" + P4_EDGELIST)
        assert main(["solve", "--param", "rlid", "-i", p]) == 0
        assert "rlid = 3" in capsys.readouterr().out

    def test_stdin_dash_sniffs_dimacs(self, monkeypatch, capsys):
        import io as stdio

        monkeypatch.setattr("sys.stdin", stdio.StringIO("c tiny\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"))
        assert main(["solve", "-i", "-"]) == 0
        assert "rlid = 3" in capsys.readouterr().out

    def test_construct_output_round_trips_through_solve(self, tmp_path, capsys):
        out = str(tmp_path / "hp2.graph")
        assert main(["construct", "hp", "--p", "2", "--out", out]) == 0
        assert main(["solve", "--param", "rlid", "-i", out]) == 0
        assert "rlid = 3" in capsys.readouterr().out

    def test_sweep_bipartite_assertion_harness(self, capsys):
        code = main(
            ["sweep", "--family", "bipartite", "--max-n", "6", "--assert", "rlid<=3"]
        )
        assert code == 0

    def test_decide_infeasible_exit_code(self, tmp_path, capsys):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        assert main(["decide", "--k", "2", "-i", p]) == 1

    @pytest.mark.parametrize("output", ["json", "dot"])
    def test_decide_no_answer_keeps_the_output_format(self, tmp_path, capsys, output):
        c5 = _write(tmp_path, "c5.txt", "5\n" + "".join("%d %d\n" % (i, (i + 1) % 5) for i in range(5)))
        assert main(["decide", "--k", "3", "-o", output, "-i", c5]) == 1
        out = capsys.readouterr().out
        if output == "json":
            assert json.loads(out) == {"parameter": "rlid", "k": 3, "coloring": None}
        else:
            assert out.encode() == export_dot(cycle(5))

    def test_solve_path_longer_than_the_recursion_limit(self, tmp_path, capsys):
        edges = "".join("%d %d\n" % (i, i + 1) for i in range(1199))
        p = _write(tmp_path, "p1200.txt", "1200\n" + edges)
        assert main(["solve", "-i", p, "-o", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 3

    def test_solve_prop1_graph_and_verify_its_witness(self, tmp_path, capsys):
        # a budget stop until the search colored the forced-difference clique first
        p = tmp_path / "prop1.dimacs"
        p.write_bytes(write_graph_dimacs(prop1_graph(4).graph))
        argv = ["solve", "-i", str(p), "--parameter", "rlid", "--node-budget", "200000"]
        assert main(argv + ["--output", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["status"], obj["value"]) == ("exact", 4)
        cert = _write(tmp_path, "witness.txt", "".join("%d %d\n" % (v, c) for v, c in obj["witness"]))
        assert main(["verify", "-i", str(p), "--mode", "rlid", "--certificate", cert]) == 0

    def test_verify_valid_and_invalid(self, tmp_path, capsys):
        g = _write(tmp_path, "c4.txt", "4\n0 1\n1 2\n2 3\n0 3\n")
        good = _write(tmp_path, "good.txt", "0 1\n1 2\n2 1\n3 3\n")
        bad = _write(tmp_path, "bad.txt", "0 1\n1 1\n2 1\n3 1\n")
        assert main(["verify", "-i", g, "--certificate", good]) == 0
        assert main(["verify", "-i", g, "--certificate", bad]) == 1

    def test_verify_code_mode(self, tmp_path, capsys):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        code = _write(tmp_path, "code.txt", "1 2 3\n")
        assert main(["verify", "-i", p, "--mode", "code", "--certificate", code]) == 0

    def test_usage_error_exit_code(self, tmp_path, capsys):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        assert main(["sweep", "--assert", "rlid ?? 3"]) == 2
        for k in ("-1", "0"):
            assert main(["decide", "-i", p, "--k", k]) == 2
            assert "--k >= 1" in capsys.readouterr().err

    def test_budget_exit_code(self, tmp_path, capsys):
        p = _write(tmp_path, "c7.txt", "7\n" + "".join("%d %d\n" % (i, (i + 1) % 7) for i in range(7)))
        assert main(["solve", "-i", p, "--node-budget", "2"]) == 3

    def test_env_budget_override(self, tmp_path, capsys, monkeypatch):
        p = _write(tmp_path, "c7.txt", "7\n" + "".join("%d %d\n" % (i, (i + 1) % 7) for i in range(7)))
        monkeypatch.setenv("RLID_NODE_BUDGET", "2")
        assert main(["solve", "-i", p]) == 3

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize("command", ["solve", "decide", "bounds", "sweep"])
    def test_non_positive_node_budget_is_a_usage_error(self, tmp_path, capsys, command, budget):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        argv = {
            "solve": ["solve", "-i", p],
            "decide": ["decide", "-i", p, "--k", "3"],
            "bounds": ["bounds", "-i", p],
            "sweep": ["sweep", "--max-n", "3"],
        }[command]
        assert main(argv + ["--node-budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--node-budget must be positive, got %s" % budget in captured.err

    def test_node_budget_of_one_still_runs(self, tmp_path, capsys):
        p = _write(tmp_path, "c5.txt", C5_EDGELIST)
        assert main(["solve", "-i", p, "--node-budget", "1"]) == 3
        assert "node budget exhausted" in capsys.readouterr().out
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        assert main(["solve", "-i", p, "--node-budget", "1"]) == 0
        assert "rlid = 3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "env, argv, code, err",
        [
            ("abc", ["solve", "-i", "p4"], 2, "RLID_NODE_BUDGET must be an integer, got 'abc'"),
            ("0", ["solve", "-i", "p4"], 2, "RLID_NODE_BUDGET must be positive, got 0"),
            (None, ["solve"], 2, "this command needs --input"),
            (None, ["construct", "star"], 2, "construct needs --size for family 'star'"),
            (None, ["color-split", "-i", "c4"], 1, "no clique/stable partition exists"),
            (None, ["reduce", "-i", "p4", "--action", "lift"], 2,
             "reduce --action lift needs --certificate"),
            (None, ["reduce", "-i", "p4", "--action", "lift", "--certificate", "cert"], 2,
             "reduce --action lift needs --k"),
        ],
        ids=["env-budget-abc", "env-budget-0", "solve-no-input", "construct-no-size",
             "color-split-c4", "lift-no-certificate", "lift-no-k"],
    )
    def test_refused_invocations_exit_with_their_code(
        self, tmp_path, capsys, monkeypatch, env, argv, code, err
    ):
        files = {
            "p4": _write(tmp_path, "p4.txt", P4_EDGELIST),
            "c4": _write(tmp_path, "c4.txt", "4\n0 1\n1 2\n2 3\n3 0\n"),
            "cert": _write(tmp_path, "cert.txt", "0 1\n1 2\n2 2\n3 1\n"),
        }
        if env is None:
            monkeypatch.delenv("RLID_NODE_BUDGET", raising=False)
        else:
            monkeypatch.setenv("RLID_NODE_BUDGET", env)
        assert main([files.get(a, a) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert err in captured.err

    def test_solve_json_output(self, tmp_path, capsys):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        assert main(["solve", "-i", p, "--output", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["value"] == 3

    def test_quotient_command(self, tmp_path, capsys):
        k4 = _write(tmp_path, "k4.txt", "4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        assert main(["quotient", "-i", k4]) == 0
        out = capsys.readouterr().out
        assert "1" in out.splitlines()[-1] or out.strip().endswith("1")

    def test_reduce_round_trip(self, tmp_path, capsys):
        base = _write(tmp_path, "c5.txt", "5\n" + "".join("%d %d\n" % (i, (i + 1) % 5) for i in range(5)))
        cert = _write(tmp_path, "proper.txt", "0 1\n1 2\n2 1\n3 2\n4 3\n")
        lifted_path = str(tmp_path / "lifted.txt")
        assert main(
            ["reduce", "-i", base, "--action", "lift", "--certificate", cert,
             "--k", "3", "--out", lifted_path]
        ) == 0
        assert main(
            ["reduce", "-i", base, "--action", "project", "--certificate", lifted_path]
        ) == 0
        out = capsys.readouterr().out
        projected = dict(
            tuple(map(int, line.split())) for line in out.strip().splitlines()
        )
        assert projected == {0: 1, 1: 2, 2: 1, 3: 2, 4: 3}

    def test_reduce_gadget_plain_is_an_edge_list(self, tmp_path, capsys):
        # the gadget has one layout: reduce writes construct gstar's bytes
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        for output in ("plain", "json", "dot"):
            assert main(["reduce", "-i", p, "-o", output]) == 0
            out = capsys.readouterr().out
            assert main(["construct", "gstar", "-i", p, "-o", output]) == 0
            assert capsys.readouterr().out == out
        assert main(["reduce", "-i", p]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# family gstar  order 14\n# vertex 0  role=orig:0\n")
        assert parse_graph_text(out, "edgelist").adj == g_star(path(4)).graph.adj

    def test_reduce_gadget_json(self, tmp_path, capsys):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        assert main(["reduce", "-i", p, "-o", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        gadget = g_star(path(4)).graph
        assert obj["family"] == "gstar"
        assert obj["n"] == gadget.n
        assert [tuple(e) for e in obj["edges"]] == list(gadget.edges())
        assert main(["construct", "gstar", "-i", p, "-o", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == obj

    def test_reduce_gadget_dot(self, tmp_path, capsys):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        assert main(["reduce", "-i", p, "-o", "dot"]) == 0
        inst = g_star(path(4))
        assert capsys.readouterr().out.encode() == export_dot(inst.graph, None, inst.roles)

    def test_bounds_on_a_clique_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        g = threshold_graph(1050)
        p = str(tmp_path / "threshold.txt")
        with open(p, "wb") as fh:
            fh.write(write_graph_edgelist(g))
        assert main(["bounds", "--node-budget", "20000", "-i", p]) in (0, 3)
        assert "best:" in capsys.readouterr().out

    def test_color_bipartite_command(self, tmp_path, capsys):
        c6 = _write(tmp_path, "c6.txt", "6\n" + "".join("%d %d\n" % (i, (i + 1) % 6) for i in range(6)))
        assert main(["color-bipartite", "-i", c6]) == 0

    def test_color_split_command(self, tmp_path, capsys):
        g = _write(tmp_path, "q2.txt", "5\n0 1\n0 2\n1 2\n0 3\n1 4\n")
        assert main(["color-split", "-i", g, "--clique", "0,1,2"]) == 0

    def test_color_split_runs_no_search_on_a_thirty_vertex_graph(self, tmp_path, capsys):
        # omega = 15: an exact search for 17 colors would not finish in test time
        g, part = random_split_graph(2, 15, 15, 0.3, twin_free=True)
        gp = tmp_path / "split30.txt"
        gp.write_bytes(write_graph_edgelist(g))
        out = str(tmp_path / "coloring.txt")
        assert main(["color-split", "-i", str(gp), "--out", out]) == 0
        assert main(["verify", "-i", str(gp), "--certificate", out]) == 0
        c = parse_coloring_file(out, g.n)
        assert len(c.used_colors()) <= len(part.clique) + 2

    def test_color_split_header_names_the_repaired_clique(self, tmp_path, capsys):
        # vertex 2 of q2(3) sees all of the clique side {0, 1}, so it moves across
        g = _write(tmp_path, "q2.txt", "5\n0 1\n0 2\n1 2\n0 3\n1 4\n")
        assert main(["color-split", "-i", g, "--clique", "0,1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "# clique 0 1 2"

    @pytest.mark.parametrize(
        "graph,clique",
        [
            # a split graph with twins (0 and 1)
            ("5\n0 1\n0 2\n1 2\n2 3\n0 4\n1 4\n", None),
            # q2(3) under a clique side that is not maximal
            ("5\n0 1\n0 2\n1 2\n0 3\n1 4\n", "0,1"),
        ],
        ids=["twins", "non-maximal-clique"],
    )
    def test_color_split_plain_exits_like_json(self, tmp_path, capsys, graph, clique):
        g = _write(tmp_path, "g.txt", graph)
        argv = ["color-split", "-i", g] + ([] if clique is None else ["--clique", clique])
        assert main(argv + ["-o", "json"]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert plain[0].startswith("# clique ")
        assert not any(line.startswith("# separator") for line in plain)

    @pytest.mark.parametrize(
        "header",
        ["p edge %d 0\n" % (MAX_ORDER + 1), "%d\n" % (MAX_ORDER + 1)],
        ids=["dimacs", "edgelist"],
    )
    def test_order_above_maximum_is_a_parse_error(self, tmp_path, capsys, header):
        big = _write(tmp_path, "big.txt", header)
        assert main(["quotient", "-i", big]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "maximum order %d" % MAX_ORDER in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--output", "dot"],
            ["quotient", "--output", "json"],
            ["color-split", "--output", "tsv"],
            ["sweep", "--format", "dimacs"],
            ["sweep", "--output", "json"],
            ["solve", "--time-budget-ms", "5"],
        ],
        ids=["solve-dot", "quotient-json", "color-split-tsv", "sweep-format",
             "sweep-output", "time-budget"],
    )
    def test_removed_options_are_usage_errors(self, tmp_path, capsys, argv):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        if argv[0] != "sweep":
            argv = argv + ["-i", p]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_color_split_empty_graph(self, tmp_path, capsys):
        g = _write(tmp_path, "empty.col", "p edge 0 0\n")
        assert main(["color-split", "-i", g]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_twins_fail_alike_for_every_twin_free_parameter(self, tmp_path, capsys):
        k2 = _write(tmp_path, "k2.txt", "2\n0 1\n")
        errors = set()
        for argv in (
            ["solve", "--parameter", "lid"],
            ["solve", "--parameter", "id"],
            ["solve", "--parameter", "gammaid"],
            ["decide", "--parameter", "lid", "--k", "2"],
            ["decide", "--parameter", "id", "--k", "2"],
        ):
            assert main(argv + ["-i", k2]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.add(captured.err)
        assert len(errors) == 1
        assert "0 and 1 are twins" in errors.pop()

    def test_sweep_assert_rejects_a_non_decimal_digit(self, capsys):
        argv = ["sweep", "--family", "connected", "--min-n", "3", "--max-n", "3",
                "--params", "rlid"]
        assert main(argv + ["--assert", "rlid <= \u00b2"]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        # a decimal digit of another script is still a literal: Arabic-Indic 3
        assert main(argv + ["--assert", "rlid <= \u0663"]) == 0

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        assert main(["sweep", "--max-n", "3", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,order", [("--min-n", "-1"), ("--max-n", "8")])
    def test_sweep_order_out_of_range_is_a_usage_error(self, capsys, flag, order):
        assert main(["sweep", "--family", "connected", flag, order]) == 2
        err = capsys.readouterr().err
        assert err == "usage error: %s must be in 0..7, got %s\n" % (flag, order)

    def test_sweep_random_families_ignore_the_order_bounds(self, capsys):
        argv = ["sweep", "--family", "random-twins", "--count", "2", "--params", "n",
                "--min-n", "-1", "--max-n", "8"]
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--edge-prob", "-1", "--edge-prob must be in [0, 1], got -1.0"),
            ("--edge-prob", "nan", "--edge-prob must be in [0, 1], got nan"),
            ("--edge-prob", "inf", "--edge-prob must be in [0, 1], got inf"),
            ("--edge-prob", "1.5", "--edge-prob must be in [0, 1], got 1.5"),
            ("--clique-size", "-1", "--clique-size must be at least 1, got -1"),
            ("--stable-size", "-1", "--stable-size must be at least 1, got -1"),
            ("--stable-size", "0", "--stable-size must be at least 1, got 0"),
        ],
    )
    def test_sweep_random_split_bad_draw_is_a_usage_error(
        self, monkeypatch, capsys, option, value, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was drawn")

        monkeypatch.setattr(cli.families, "random_split_graph", refuse)
        argv = ["sweep", "--family", "random-split", "--count", "1", option, value]
        assert main(argv) == 2
        assert capsys.readouterr().err == "usage error: %s\n" % message

    @pytest.mark.parametrize(
        "option,value", [("--edge-prob", "0.5"), ("--clique-size", "6"), ("--stable-size", "6")]
    )
    @pytest.mark.parametrize("family", ["random-twins", "connected"])
    def test_sweep_other_families_refuse_the_split_draw(self, capsys, family, option, value):
        argv = ["sweep", "--family", family, "--count", "1", "--max-n", "2", option, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "usage error: %s applies to --family random-split only\n" % option

    def test_sweep_random_split_defaults(self, capsys):
        want = (
            "family\tn\tindex\tmask\tn\tm\tt\tomega\trlid\n"
            "random-split\t12\t0\t1161384858058399\t12\t29\t0\t6\t5\n"
            "random-split\t12\t1\t2105513210707519\t12\t40\t0\t7\t5\n"
            "random-split\t12\t2\t2054204641738655\t12\t33\t1\t7\t5\n"
        )
        argv = ["sweep", "--family", "random-split", "--count", "3", "--params", "n,m,t,omega,rlid"]
        for given in ([], ["--clique-size", "6", "--stable-size", "6", "--edge-prob", "0.5"]):
            assert main(argv + given) == 0
            assert capsys.readouterr().out == want

    def test_sweep_omega_obeys_the_node_budget(self, capsys):
        # a 40-clique needs more than one clique-search node, so omega
        # stops like every other search column: "budget", and a skipped row
        argv = ["sweep", "--family", "random-split", "--count", "1", "--clique-size", "40",
                "--stable-size", "3", "--params", "omega"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1].split("\t")[4] == "40"
        assert main(argv + ["--node-budget", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split("\t")[4] == "budget"
        assert main(argv + ["--node-budget", "1", "--assert", "omega >= 1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].split("\t")[4:] == ["budget", "skip"]
        assert captured.err == "sweep: 1 graphs, 0 failures, 1 skipped\n"

    def test_sweep_rlid_column_uses_the_bounds_of_solve(self, tmp_path, capsys):
        # every connected graph of order <= 3 closes without a search, so
        # a one-node budget answers each row as it answers solve
        argv = ["sweep", "--max-n", "3", "--params", "rlid", "--node-budget", "1"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        rlid = [row.split("\t")[4] for row in captured.out.splitlines()[1:]]
        assert rlid == ["1", "1", "3", "3", "3", "1"]
        assert captured.err == "sweep: 6 graphs, 0 failures, 0 skipped\n"
        p = _write(tmp_path, "p3.txt", "3\n0 1\n1 2\n")
        assert main(["solve", "-i", p, "--node-budget", "1"]) == 0
        assert capsys.readouterr().out.startswith("rlid = 3\n# nodes=0 ")

    def test_sweep_marks_a_failed_precondition(self, capsys):
        # lid needs a twin-free graph, and K2 is one twin class
        argv = ["sweep", "--max-n", "2", "--params", "lid,rlid", "--assert", "lid >= rlid"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == [
            "connected\t1\t0\t0\t1\t1\tpass",
            "connected\t2\t1\t1\tprecondition\t1\tskip",
        ]
        assert captured.err == "sweep: 2 graphs, 0 failures, 1 skipped\n"

    def test_sweep_refuses_an_assertion_literal_too_long_to_read(self, capsys):
        argv = ["sweep", "--max-n", "2", "--assert"]
        with _int_str_digits(4300):
            assert main(argv + ["rlid <= " + "9" * 5000]) == 2
            assert capsys.readouterr().err == (
                "usage error: integer of 5000 digits in assertion exceeds the limit of 4300 "
                "digits\n"
            )
            assert main(argv + ["rlid <= " + "9" * 4300]) == 0

    @pytest.mark.parametrize(
        "clique,stable,edge_prob", [(100, 60, "0.5"), (100, 93, "1"), (1, 14284, "1")]
    )
    def test_sweep_random_split_writes_masks_up_to_the_digit_limit(
        self, capsys, clique, stable, edge_prob
    ):
        # the fullest draw of (1, 14284) has a 4300-digit mask
        argv = ["sweep", "--family", "random-split", "--count", "1", "--params", "n",
                "--clique-size", str(clique), "--stable-size", str(stable),
                "--edge-prob", edge_prob]
        with _int_str_digits(4300):
            assert main(argv) == 0
            g = random_split_graph(0, clique, stable, float(edge_prob))[0]
            row = "random-split\t%d\t0\t%d\t%d" % (g.n, edge_mask(g), g.n)
        assert capsys.readouterr().out.splitlines()[1] == row

    @pytest.mark.parametrize(
        "clique,stable,bits",
        [(100, 100, 14950), (100, 94, 14350), (1, 14285, 14285), (170, 1, 14535)],
    )
    def test_sweep_random_split_refuses_masks_too_long_to_write(
        self, monkeypatch, capsys, clique, stable, bits
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was drawn")

        monkeypatch.setattr(cli.families, "random_split_graph", refuse)
        argv = ["sweep", "--family", "random-split", "--count", "1", "--params", "n",
                "--clique-size", str(clique), "--stable-size", str(stable)]
        with _int_str_digits(4300):
            assert main(argv) == 2
        assert capsys.readouterr().err == (
            "usage error: random-split --clique-size %d --stable-size %d may draw an edge "
            "mask of %d bits, more than the 14284 that fit the 4300-digit limit of "
            "sys.get_int_max_str_digits()\n" % (clique, stable, bits)
        )

    @pytest.mark.parametrize("getter", ["zero", "absent"])
    @pytest.mark.parametrize(
        "clique,stable,refusal",
        [(1, 49999, None), (1, 50000, "the maximum order 50000"),
         (2000, 1, "the maximum edge count 2000000")],
    )
    def test_sweep_random_split_without_a_digit_limit_keeps_the_construct_caps(
        self, monkeypatch, capsys, getter, clique, stable, refusal
    ):
        argv = ["sweep", "--family", "random-split", "--count", "1", "--params", "n",
                "--clique-size", str(clique), "--stable-size", str(stable)]
        with _int_str_digits(0):
            # a Python before 3.10.7 has no digit limit and no getter for it
            if getter == "absent":
                monkeypatch.delattr(sys, "get_int_max_str_digits")
            assert main(argv) == (0 if refusal is None else 2)
        captured = capsys.readouterr()
        if refusal is None:
            assert captured.out.splitlines()[1].split("\t")[:2] == ["random-split", "50000"]
        else:
            assert captured.err == (
                "usage error: random-split --clique-size %d --stable-size %d exceeds %s\n"
                % (clique, stable, refusal)
            )

    @pytest.mark.parametrize(
        "family,size",
        [(f, p) for f in ("star", "power-path", "q2") for p in range(2, 12)]
        + [("hp", p) for p in range(2, 7)]
        + [("q1", p) for p in range(2, 8)]
        + [("prop1", p) for p in range(4, 7)],
    )
    def test_construct_size_formulas_match_the_built_instance(self, monkeypatch, family, size):
        checked = []
        size_check = cli._size

        def record(args, size_of):
            checked.append(size_of(args.size))
            return size_check(args, size_of)

        monkeypatch.setattr(cli, "_size", record)
        inst = cli._FAMILIES[family](argparse.Namespace(family=family, size=size))
        assert checked == [(inst.graph.n, inst.graph.edge_count)]

    @pytest.mark.parametrize("family", ["random-split", "random-twins"])
    def test_sweep_negative_count_is_a_usage_error(self, capsys, family):
        argv = ["sweep", "--family", family, "--params", "n"]
        assert main(argv + ["--count", "-1"]) == 2
        assert capsys.readouterr().err == "usage error: --count must be at least 0, got -1\n"
        assert main(argv + ["--count", "0"]) == 0
        assert "sweep: 0 graphs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family,size,builder",
        [
            ("hp", "40", "h_p"),
            ("prop1", "30", "prop1_graph"),
            ("star", "100000000", "star"),
            ("power-path", "1000000", "power_path"),
            ("q2", "1000000", "q2"),
            ("q1", "100000000", "q1"),
        ],
    )
    def test_construct_over_the_maximum_order_is_refused_unbuilt(
        self, monkeypatch, capsys, family, size, builder
    ):
        def refuse(p):
            raise AssertionError("%s(%d) was built" % (builder, p))

        monkeypatch.setattr(cli.families, builder, refuse)
        assert main(["construct", family, "--size", size]) == 2
        err = capsys.readouterr().err
        assert err == "usage error: construct %s --size %s exceeds the maximum order 50000\n" % (
            family, size
        )

    def test_construct_at_the_maximum_order_is_built(self, capsys):
        assert main(["construct", "star", "--size", "49999"]) == 0
        assert "family star  order 50000" in capsys.readouterr().out

    @pytest.mark.parametrize("family,size", [("hp", "1"), ("q1", "-5"), ("prop1", "-100")])
    def test_construct_below_the_smallest_size_is_a_graph_error(self, capsys, family, size):
        assert main(["construct", family, "--size", size]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "family,size,builder",
        [
            ("hp", "11", "h_p"),
            ("hp", "15", "h_p"),
            ("q1", "12", "q1"),
            ("q1", "16", "q1"),
            ("q2", "2000", "q2"),
            ("q2", "25000", "q2"),
            ("power-path", "1156", "power_path"),
        ],
    )
    def test_construct_over_the_maximum_edge_count_is_refused_unbuilt(
        self, monkeypatch, capsys, family, size, builder
    ):
        def refuse(p):
            raise AssertionError("%s(%d) was built" % (builder, p))

        monkeypatch.setattr(cli.families, builder, refuse)
        assert main(["construct", family, "--size", size]) == 2
        err = capsys.readouterr().err
        assert err == (
            "usage error: construct %s --size %s exceeds the maximum edge count 2000000\n"
            % (family, size)
        )

    @pytest.mark.parametrize(
        "family,size,builder",
        [("hp", 10, "h_p"), ("q1", 11, "q1"), ("q2", 1999, "q2"), ("power-path", 1155, "power_path")],
    )
    def test_construct_at_the_maximum_edge_count_reaches_the_builder(
        self, monkeypatch, capsys, family, size, builder
    ):
        built = []

        def stub(p):
            built.append(p)
            raise cli.GraphError("stub builder")

        monkeypatch.setattr(cli.families, builder, stub)
        assert main(["construct", family, "--size", str(size)]) == 1
        assert built == [size]
        assert capsys.readouterr().err == "error: stub builder\n"

    def test_budget_stop_is_exit_three(self, tmp_path, capsys):
        c6 = _write(tmp_path, "c6.txt", "6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        assert main(["decide", "--k", "3", "--node-budget", "2", "-i", c6]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget exhausted: node budget 2 exceeded\n"

    def test_sweep_holds_one_row_at_a_time(self, tmp_path, capsys):
        # 32,768 rows; a sweep that kept its graphs or its table peaked at 23 MB
        out = tmp_path / "all6.tsv"
        argv = ["sweep", "--family", "all", "--min-n", "6", "--max-n", "6",
                "--params", "n", "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        lines = out.read_bytes().splitlines()
        assert len(lines) == 32_769
        assert lines[0] == b"family\tn\tindex\tmask\tn"
        assert lines[-1] == b"all\t6\t32767\t32767\t6"
        assert capsys.readouterr().err == "sweep: 32768 graphs, 0 failures, 0 skipped\n"

    def test_sweep_feeds_the_pool_in_batches(self, monkeypatch, tmp_path):
        pools = _record_pools(monkeypatch)
        recorder = concurrent.futures.ProcessPoolExecutor
        record_map = recorder.map
        batches = []

        def map_batch(self, fn, items, chunksize=1):
            items = list(items)
            batches.append(len(items))
            return record_map(self, fn, items, chunksize)

        monkeypatch.setattr(recorder, "map", map_batch)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        argv = ["sweep", "--family", "all", "--min-n", "6", "--max-n", "6", "--params", "n"]
        assert main(argv + ["--jobs", "2", "--out", a]) == 0
        assert pools == [2]
        assert batches == [4096] * 8
        assert main(argv + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize(
        "jobs,cpus,max_n,workers",
        [
            (1000, 8, 3, 6),  # 6 rows
            (1000, 2, 3, 2),
            (3, 8, 4, 3),
            (1000, 8, 1, None),  # one row: no pool
            (1000, None, 4, None),  # unknown CPU count counts as one
        ],
    )
    def test_sweep_pool_never_exceeds_the_cpus_or_the_rows(
        self, monkeypatch, tmp_path, jobs, cpus, max_n, workers
    ):
        pools = _record_pools(monkeypatch)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        argv = ["sweep", "--family", "connected", "--max-n", str(max_n),
                "--params", "rlid,omega,t"]
        assert main(argv + ["--jobs", str(jobs), "--out", a]) == 0
        assert pools == ([] if workers is None else [workers])
        assert main(argv + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_sweep_jobs_deterministic(self, tmp_path):
        a = str(tmp_path / "a.tsv")
        b = str(tmp_path / "b.tsv")
        argv = ["sweep", "--family", "connected", "--max-n", "4",
                "--params", "rlid,omega,t"]
        assert main(argv + ["--jobs", "2", "--out", a]) == 0
        assert main(argv + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["decide", "--k", "1"], 1),
            (["color-bipartite"], 0),
            (["color-split", "--clique", "1,2"], 0),
            (["verify", "--certificate", "CERT"], 1),
            (["bounds"], 0),
        ],
        ids=["decide", "color-bipartite", "color-split", "verify", "bounds"],
    )
    def test_out_file_gets_exactly_the_stdout_bytes(self, tmp_path, capsys, argv, code):
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        cert = _write(tmp_path, "cert.txt", "0 1\n1 1\n2 2\n3 2\n")
        argv = [cert if a == "CERT" else a for a in argv] + ["-i", p]
        assert main(argv) == code
        shown = capsys.readouterr().out
        out = tmp_path / "result.txt"
        assert main(argv + ["--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert shown and out.read_text() == shown

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = _write(tmp_path, "bad.txt", "nonsense\n")
        assert main(["solve", "-i", bad]) == 1
        # a file that is not UTF-8, as a graph and as a certificate
        p4 = _write(tmp_path, "p4.txt", P4_EDGELIST)
        ff = tmp_path / "ff.txt"
        ff.write_bytes(b"\xff\n")
        for argv in (["quotient", "-i", str(ff)], ["verify", "-i", p4, "--certificate", str(ff)]):
            capsys.readouterr()
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "utf-8" in err


def _record_pools(monkeypatch):
    """Replace the sweep's process pool by an in-process one; returns the
    list of the max_workers values it was built with."""
    pools = []

    class Recorder:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # the sweep imports the pool class from here when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return pools


def _run_cli(argv, capsys):
    """(exit code, stdout, stderr) of one in-process call; argparse's
    own usage errors and --help exit through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserIsBuiltOnce:
    def test_only_the_first_call_builds_parsers(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cli.build_parser.cache_clear()
        assert main(["construct", "hp", "--p", "2"]) == 0
        # the top-level parser and one per subcommand
        assert len(built) == 11
        assert main(["construct", "hp", "--p", "2"]) == 0
        assert len(built) == 11

    def test_a_shared_parser_answers_like_a_fresh_one(self, tmp_path, capsys):
        p4 = _write(tmp_path, "p4.txt", P4_EDGELIST)
        cert = _write(tmp_path, "cert.txt", "0 1\n1 1\n2 2\n3 2\n")
        sequence = [
            ["construct", "hp", "--p", "2", "--dot"],
            ["construct", "hp", "--p", "2", "-o", "json"],
            ["construct", "hp", "--p", "2"],
            ["sweep", "--family", "connected", "--max-n", "4", "--params", "rlid,omega,t"],
            ["solve", "-i", p4, "-o", "json"],
            ["solve", "-i", p4, "-o", "tsv", "--parameter", "gammaid"],
            ["bounds", "-i", p4],
            ["verify", "-i", p4, "--certificate", cert, "-o", "json"],
            ["decide", "-i", p4, "--k", "0"],
            ["solve", "-i", p4, "-o", "dot"],
            ["sweep", "--params", "rlid,nonsense", "--max-n", "3"],
            ["quotient", "--help"],
            ["sweep", "--max-n", "3"],
        ]
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(_run_cli(argv, capsys))
        shared = [_run_cli(argv, capsys) for argv in sequence]
        assert shared == fresh
        assert {code for code, _, _ in fresh} == {0, 1, 2}


# arbitrary bytes, plus token soup close enough to the formats to get
# past the first line
_HOSTILE_BYTES = st.binary(max_size=48) | st.lists(
    st.lists(
        st.sampled_from(["p", "edge", "e", "c", "#", "-1", "0", "1", "2", "3",
                         "7", "99999999", "x", "\u00ff", "\t"]),
        max_size=5,
    ).map(" ".join),
    max_size=6,
).map(lambda lines: "\n".join(lines).encode())

_FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


# mostly well formed sides, so that many cases get past the parser
_ASSERT_SIDE = st.lists(
    st.sampled_from(["rlid", "omega", "n", "m", "t", "lid", "2", "07", "\u0663",
                     "nope", "\u00b2", "("]),
    min_size=1, max_size=3,
).flatmap(lambda atoms: st.lists(st.sampled_from([" + ", "-", " - ", " * "]),
                                 min_size=len(atoms) - 1, max_size=len(atoms) - 1)
          .map(lambda ops: atoms[0] + "".join(o + a for o, a in zip(ops, atoms[1:]))))


# an integer option's text: small values, one far too large, and non-integers
_OPTION_INT = st.integers(-2, 6).map(str) | st.sampled_from(["x", "", "1.5", str(10**11)])


class TestHostileInput:
    """No input file, however malformed, ends in a traceback."""

    @_FUZZ
    @given(
        data=_HOSTILE_BYTES,
        argv=st.sampled_from([
            ["quotient"],
            ["bounds", "--node-budget", "200"],
            ["solve", "--node-budget", "200"],
        ]),
    )
    def test_graph_file(self, tmp_path, data, argv):
        p = tmp_path / "g"
        p.write_bytes(data)
        assert main(argv + ["-i", str(p)]) in (0, 1, 2, 3)

    @pytest.mark.parametrize("mode", ["rlid", "lid", "id"])
    def test_huge_certificate_color(self, tmp_path, capsys, mode):
        # 1 << 10**11 would be a 12 GB integer; colors are ranked first
        huge = 10**11
        g = _write(tmp_path, "p4.txt", P4_EDGELIST)
        reports = []
        for top in (huge, 2):
            cert = _write(tmp_path, "cert.txt", "0 %d\n1 1\n2 1\n3 1\n" % top)
            start = time.perf_counter()
            assert main(["verify", "-i", g, "--mode", mode, "--certificate", cert, "-o", "json"]) == 1
            assert time.perf_counter() - start < 5
            reports.append(json.loads(capsys.readouterr().out))
        big, small = reports
        for x in small["violations"]:
            x["witness"] = sorted(huge if c == 2 else c for c in x["witness"])
        assert big == small
        assert any(huge in x["witness"] for x in big["violations"])

    @_FUZZ
    @given(data=_HOSTILE_BYTES, mode=st.sampled_from(["rlid", "lid", "code"]))
    def test_certificate_file(self, tmp_path, data, mode):
        g = _write(tmp_path, "p4.txt", P4_EDGELIST)
        cert = tmp_path / "cert"
        cert.write_bytes(data)
        assert main(["verify", "-i", g, "--mode", mode, "--certificate", str(cert)]) in (0, 1, 2, 3)

    @_FUZZ
    @given(
        assertion=st.text(max_size=24) | st.tuples(
            _ASSERT_SIDE, st.sampled_from(["<=", ">=", "==", "!=", "<", ">", "=", ""]), _ASSERT_SIDE
        ).map("".join),
        min_n=st.integers(-1, 4),
        max_n=st.integers(-1, 4),
        jobs=st.integers(1, 3),
    )
    def test_sweep_options(self, monkeypatch, capsys, assertion, min_n, max_n, jobs):
        pools = _record_pools(monkeypatch)
        code = main(["sweep", "--family", "connected", "--min-n", str(min_n),
                     "--max-n", str(max_n), "--jobs", str(jobs), "--node-budget", "2000",
                     "--assert=" + assertion])
        capsys.readouterr()
        assert code in (0, 1, 2)
        assert all(2 <= w <= jobs for w in pools)

    @_FUZZ
    @given(argv=st.one_of(
        st.builds(lambda cmd, k: cmd + ["--k=" + k],
                  st.sampled_from([["decide"], ["decide", "--parameter", "lid"],
                                   ["reduce", "--action", "lift"]]),
                  _OPTION_INT),
        st.text(alphabet=" ,-0123456789x\t", max_size=8).map(
            lambda clique: ["color-split", "--clique=" + clique]),
        st.builds(
            lambda family, count, seed, prob, clique, stable: [
                "sweep", "--family", family, "--count=%d" % count, "--seed=%d" % seed,
                "--edge-prob=" + prob, "--clique-size=%d" % clique,
                "--stable-size=%d" % stable, "--node-budget", "2000"],
            st.sampled_from(["random-split", "random-twins"]),
            st.integers(-1, 3),
            st.integers(-5, 5) | st.just(10**12),
            st.sampled_from(["nan", "inf", "-inf", "-0.5", "0", "1", "1.5", "x"])
            | st.floats(-1, 2).map(repr),
            st.integers(-1, 6),
            st.integers(-1, 6),
        ),
    ))
    def test_command_options(self, tmp_path, capsys, argv):
        if argv[0] != "sweep":
            argv += ["-i", _write(tmp_path, "p4.txt", P4_EDGELIST)]
        if argv[0] == "reduce":
            argv += ["--certificate", _write(tmp_path, "cert.txt", "0 1\n1 2\n2 1\n3 2\n")]
        code, _, _ = _run_cli(argv, capsys)
        assert code in (0, 1, 2, 3)
