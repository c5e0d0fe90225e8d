"""File formats, result serialization, DOT export, and the CLI surface."""

import json
import logging

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rlid import (
    Budget,
    Coloring,
    bounds_report,
    build_graph,
    chi_exact,
    export_dot,
    parse_coloring_file,
    parse_graph_file,
    parse_graph_text,
    parse_vertex_set_file,
    random_split_graph,
    verify_rlid,
    write_graph_dimacs,
    write_graph_edgelist,
    write_result,
)
from rlid.cli import main
from rlid.families import g_star, h_p
from rlid.io import MAX_ORDER, ParseError

from _helpers import cycle, path, star_graph, threshold_graph

P4_EDGELIST = "4\n0 1\n1 2\n2 3\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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
                p.write_bytes(writer(g))
                back = parse_graph_file(str(p), fmt)
                assert back.n == g.n
                assert back.adj == g.adj

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
        res = chi_exact(path(4), "rlid")
        obj = json.loads(write_result(res, "json"))
        assert obj["parameter"] == "rlid"
        assert obj["value"] == 3
        assert obj["status"] == "exact"
        assert len(obj["witness"]) == 4
        assert obj["stats"]["nodes"] >= 1

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
        p = _write(tmp_path, "p4.txt", P4_EDGELIST)
        assert main(["reduce", "-i", p]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# gadget of a 4-vertex input, order 14\n")
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
        assert capsys.readouterr().out.encode() == export_dot(g_star(path(4)).graph)

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

    @_FUZZ
    @given(data=_HOSTILE_BYTES, mode=st.sampled_from(["rlid", "lid", "code"]))
    def test_certificate_file(self, tmp_path, data, mode):
        g = _write(tmp_path, "p4.txt", P4_EDGELIST)
        cert = tmp_path / "cert"
        cert.write_bytes(data)
        assert main(["verify", "-i", g, "--mode", mode, "--certificate", str(cert)]) in (0, 1, 2, 3)
