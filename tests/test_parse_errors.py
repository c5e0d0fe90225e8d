"""Every error of the four file parsers, pinned to its exact message.

Each row is an input, the exception it raises, its full message (the
line number and the quoted stripped line included) and the exit code
of the ``rlid`` command that reads it.  The rows also pin how lines
count: CRLF ends, blank, form-feed and comment lines before the header,
and whitespace that ``str.strip`` removes.
"""

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlid import parse_coloring_file, parse_graph_text, parse_vertex_set_file
from rlid.cli import main
from rlid.coloring import ColoringError
from rlid.io import MAX_ORDER, ParseError

P4_EDGELIST = "4\n0 1\n1 2\n2 3\n"

# (format, text, exception, message); the CLI exits 1 on each
GRAPH_ERRORS = [
    ("dimacs", "p edge 3 1\np edge 3 1\ne 1 2\n", ParseError, "line 2: second problem line"),
    ("dimacs", "p vertex 3 2\ne 1 2\n", ParseError,
     "line 1: malformed problem line 'p vertex 3 2'"),
    ("dimacs", "p edge 3\n", ParseError, "line 1: malformed problem line 'p edge 3'"),
    ("dimacs", "p edge 3 1 7\n", ParseError, "line 1: malformed problem line 'p edge 3 1 7'"),
    ("dimacs", "p edge x 2\n", ParseError, "line 1: non-numeric problem line 'p edge x 2'"),
    ("dimacs", "p edge 3 y\n", ParseError, "line 1: non-numeric problem line 'p edge 3 y'"),
    ("dimacs", "p edge %d 0\n" % (MAX_ORDER + 1), ParseError,
     "line 1: %d vertices exceed the maximum order %d" % (MAX_ORDER + 1, MAX_ORDER)),
    ("dimacs", "e 1 2\np edge 2 1\n", ParseError, "line 1: edge before problem line"),
    ("dimacs", "p edge 3 1\ne 1\n", ParseError, "line 2: malformed edge line 'e 1'"),
    ("dimacs", "p edge 3 1\ne 1 2 3\n", ParseError, "line 2: malformed edge line 'e 1 2 3'"),
    ("dimacs", "p edge 3 1\ne 1 x\n", ParseError, "line 2: non-numeric edge 'e 1 x'"),
    ("dimacs", "p edge 3 1\ne 1 4\n", ParseError, "line 2: endpoint out of range 1..3 in 'e 1 4'"),
    ("dimacs", "p edge 3 1\ne 0 2\n", ParseError, "line 2: endpoint out of range 1..3 in 'e 0 2'"),
    ("dimacs", "p edge 3 1\ne 2 2\n", ParseError, "line 2: self-loop 'e 2 2'"),
    ("dimacs", "p edge 3 1\nx 1 2\n", ParseError, "line 2: unrecognized line 'x 1 2'"),
    ("dimacs", "p edge 3 1\npedge\n", ParseError, "line 2: unrecognized line 'pedge'"),
    ("dimacs", "c only a comment\n", ParseError, "no problem line found"),
    ("dimacs", "", ParseError, "no problem line found"),
    ("dimacs", "p edge 3 5\ne 1 2\n", ParseError,
     "edge count mismatch: header declares 5, found 1 edge lines"),
    # duplicates count as edge lines
    ("dimacs", "p edge 3 1\ne 1 2\ne 2 1\n", ParseError,
     "edge count mismatch: header declares 1, found 2 edge lines"),
    # a negative vertex count stops at its header line
    ("dimacs", "p edge -1 0\n", ParseError, "line 1: vertex count must be nonnegative, got -1"),
    ("dimacs", "p edge -1 1\ne 1 2\n", ParseError,
     "line 1: vertex count must be nonnegative, got -1"),
    ("dimacs", "p edge -1 3\n", ParseError, "line 1: vertex count must be nonnegative, got -1"),
    ("dimacs", "c x\n\np edge -7 0\n", ParseError,
     "line 3: vertex count must be nonnegative, got -7"),
    # the quoted line is stripped of all whitespace str.strip removes
    ("dimacs", "p edge 3 1\n \t e 1 x \t\n", ParseError, "line 2: non-numeric edge 'e 1 x'"),
    ("dimacs", "p edge 3 1\n\u00a0e  1\u3000x\u2003\n", ParseError,
     "line 2: non-numeric edge 'e  1\\u3000x'"),
    ("dimacs", "c hi\r\np edge 3 1\r\ne 1 4\r\n", ParseError,
     "line 3: endpoint out of range 1..3 in 'e 1 4'"),
    # a form feed ends a line of its own, so it shifts the count
    ("dimacs", "\f\n  \n\t\nc note\ncomment\np edge 2 1\ne 1 3\n", ParseError,
     "line 8: endpoint out of range 1..2 in 'e 1 3'"),
    ("dimacs", "\r\n\r\nc x\r\n\x0b\r\np edge 2 1\r\ne 1 1\r\n", ParseError,
     "line 7: self-loop 'e 1 1'"),
    ("edgelist", "", ParseError, "empty graph file"),
    ("edgelist", "# only a comment\n\n", ParseError, "empty graph file"),
    ("edgelist", "3 4\n", ParseError, "line 1: expected the vertex count, got '3 4'"),
    ("edgelist", "x\n", ParseError, "line 1: non-numeric vertex count 'x'"),
    ("edgelist", "%d\n" % (MAX_ORDER + 1), ParseError,
     "line 1: %d vertices exceed the maximum order %d" % (MAX_ORDER + 1, MAX_ORDER)),
    ("edgelist", "3\n0\n", ParseError, "line 2: expected 'u v', got '0'"),
    ("edgelist", "3\n0 1 2\n", ParseError, "line 2: expected 'u v', got '0 1 2'"),
    ("edgelist", "3\n0 x\n", ParseError, "line 2: non-numeric edge '0 x'"),
    ("edgelist", "3\n0 3\n", ParseError, "line 2: endpoint out of range 0..2"),
    ("edgelist", "3\n-1 0\n", ParseError, "line 2: endpoint out of range 0..2"),
    ("edgelist", "3\n1 1\n", ParseError, "line 2: self-loop"),
    ("edgelist", "-1\n", ParseError, "line 1: vertex count must be nonnegative, got -1"),
    ("edgelist", "-1\n0 1\n", ParseError, "line 1: vertex count must be nonnegative, got -1"),
    ("edgelist", "# x\r\n -2 \r\n", ParseError, "line 2: vertex count must be nonnegative, got -2"),
    ("edgelist", "  # note\r\n\f\r\n\t3\t\r\n 0   x \r\n", ParseError,
     "line 5: non-numeric edge '0   x'"),
]

# (text, exception, message) for a certificate of P4; the CLI exits 1
COLORING_ERRORS = [
    ("0 1 2\n", ParseError, "line 1: expected 'vertex color', got '0 1 2'"),
    ("0\n", ParseError, "line 1: expected 'vertex color', got '0'"),
    ("0 x\n", ParseError, "line 1: non-numeric entry '0 x'"),
    ("4 1\n", ParseError, "line 1: vertex 4 out of range 0..3"),
    ("-1 1\n", ParseError, "line 1: vertex -1 out of range 0..3"),
    ("0 1\n0 2\n", ParseError, "line 2: vertex 0 assigned twice"),
    ("0 1\n1 1\n", ParseError, "no color for vertices [2, 3]"),
    ("", ParseError, "no color for vertices [0, 1, 2, 3]"),
    ("0 1\n1 1\n2 0\n3 1\n", ColoringError, "vertex 2 has non-positive color 0"),
    ("# c\r\n\r\n 0\t1 \r\n\f\r\n1 1 1\r\n", ParseError,
     "line 6: expected 'vertex color', got '1 1 1'"),
]

VERTEX_SET_ERRORS = [
    ("1 x\n", "line 1: non-numeric vertex 'x'"),
    ("1\n\n# c\n2 4\n", "line 4: vertex 4 out of range"),
    ("-1\n", "line 1: vertex -1 out of range"),
    ("0\r\n\f\r\n1 2 y\r\n", "line 4: non-numeric vertex 'y'"),
]


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_bytes(text.encode())
    return str(p)


def _graph_id(row):
    return row[0] + ":" + row[3][:40]


@pytest.mark.parametrize("fmt,text,exc,message", GRAPH_ERRORS,
                         ids=[_graph_id(r) for r in GRAPH_ERRORS])
def test_graph_error(tmp_path, capsys, fmt, text, exc, message):
    with pytest.raises(exc) as info:
        parse_graph_text(text, fmt)
    assert type(info.value) is exc and str(info.value) == message
    p = _write(tmp_path, "g", text)
    assert main(["quotient", "-i", p, "--format", fmt]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("text,exc,message", COLORING_ERRORS,
                         ids=[r[2][:40] for r in COLORING_ERRORS])
def test_coloring_error(tmp_path, capsys, text, exc, message):
    cert = _write(tmp_path, "cert", text)
    with pytest.raises(exc) as info:
        parse_coloring_file(cert, 4)
    assert type(info.value) is exc and str(info.value) == message
    g = _write(tmp_path, "g", P4_EDGELIST)
    assert main(["verify", "-i", g, "--certificate", cert]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("text,message", VERTEX_SET_ERRORS,
                         ids=[r[1] for r in VERTEX_SET_ERRORS])
def test_vertex_set_error(tmp_path, capsys, text, message):
    cert = _write(tmp_path, "code", text)
    with pytest.raises(ParseError) as info:
        parse_vertex_set_file(cert, 4)
    assert str(info.value) == message
    g = _write(tmp_path, "g", P4_EDGELIST)
    assert main(["verify", "--mode", "code", "-i", g, "--certificate", cert]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


def test_missing_vertices_name_the_first_ten(tmp_path):
    cert = _write(tmp_path, "cert", "11 1\n")
    with pytest.raises(ParseError) as info:
        parse_coloring_file(cert, 13)
    assert str(info.value) == "no color for vertices %r" % ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9],)


def test_unknown_graph_format():
    with pytest.raises(ParseError) as info:
        parse_graph_text("3\n", "gml")
    assert str(info.value) == "unknown graph format 'gml' (expected auto, dimacs or edgelist)"


@pytest.mark.parametrize(
    "fmt,text,m,dupes",
    [
        ("edgelist", "3\n0 1\n1 0\n0 1\n1 2\n", 2, 2),
        ("dimacs", "p edge 3 4\ne 1 2\ne 2 1\ne 2 3\ne 3 2\n", 2, 2),
        ("edgelist", "3\n0 1\n1 2\n", 2, 0),
    ],
)
def test_duplicate_edge_warning_count(caplog, fmt, text, m, dupes):
    with caplog.at_level(logging.WARNING, logger="rlid.io"):
        g = parse_graph_text(text, fmt)
    assert g.edge_count == m
    warned = [r.getMessage() for r in caplog.records if r.name == "rlid.io"]
    expected = ["collapsed %d duplicate edge declarations" % dupes] if dupes else []
    assert warned == expected


def test_lenient_dimacs_tolerates_only_the_count(tmp_path, capsys):
    assert parse_graph_text("p edge 3 5\ne 1 2\n", "dimacs", strict=False).edge_count == 1
    p = _write(tmp_path, "g", "p edge -1 5\n")
    message = "line 1: vertex count must be nonnegative, got -1"
    with pytest.raises(ParseError) as info:
        parse_graph_text("p edge -1 5\n", "dimacs", strict=False)
    assert str(info.value) == message
    assert main(["quotient", "-i", p, "--lenient"]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("fmt,text", [
    ("dimacs", "p edge %d 0\n" % MAX_ORDER),
    ("edgelist", "%d\n" % MAX_ORDER),
])
def test_maximum_order_is_accepted(fmt, text):
    g = parse_graph_text(text, fmt)
    assert g.n == MAX_ORDER and g.edge_count == 0


@pytest.mark.parametrize("text", [
    "c hi\r\np edge 4 3\r\ne 1 2\r\ne 2 3\r\ne 3 4\r\n",
    "\f\n  \nc x\n\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n",
    "# hi\r\n\r\n4\r\n0 1\r\n1 2\r\n2 3\r\n",
    "\f\n\t\n# x\n4\n0 1\n1 2\n2 3\n",
])
def test_line_ends_and_leading_blank_lines_parse(text):
    g = parse_graph_text(text, "auto")
    assert g.n == 4 and g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_crlf_certificates(tmp_path):
    cert = _write(tmp_path, "cert", "# c\r\n0 1\r\n\r\n1 2\r\n2 3\r\n3 1\r\n")
    assert parse_coloring_file(cert, 4).colors == (1, 2, 3, 1)
    code = _write(tmp_path, "code", "# c\r\n1\r\n\f\r\n2 3\r\n")
    assert parse_vertex_set_file(code, 4) == frozenset({1, 2, 3})


def _outcome(text, fmt):
    """The parsed graph, or the type and message of the parse error."""
    try:
        return parse_graph_text(text, fmt)
    except ValueError as e:
        return type(e), str(e)


def _sniff_reference(text):
    """The format decision read off the whole ``splitlines`` list."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        return "dimacs" if line.split(None, 1)[0] in ("c", "p") else "edgelist"
    return "edgelist"


# every character at which str.splitlines ends a line, other whitespace,
# and the characters the decision turns on
_SNIFF_ALPHABET = list("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029 \t\u00a0\u3000#cpe1x")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_SNIFF_ALPHABET), max_size=24).map("".join))
def test_sniff_matches_the_first_significant_line(text):
    assert _outcome(text, "auto") == _outcome(text, _sniff_reference(text))


@pytest.mark.parametrize("text,fmt", [
    ("", "edgelist"),
    ("# a\r# b\rp edge 1 0\r", "dimacs"),
    ("# a\r#b\r3\r0 1\r", "edgelist"),
    ("#p edge 3 0\n4\n", "edgelist"),
    ("# c\u2028c comment\u2029p edge 1 0", "dimacs"),
    ("  \f  # x\x85\t p\n", "dimacs"),
    ("cx 1\n", "edgelist"),
    ("\u00a0c\u00a0\n", "dimacs"),
    ("# only a comment", "edgelist"),
])
def test_sniff_examples(text, fmt):
    assert _sniff_reference(text) == fmt
    assert _outcome(text, "auto") == _outcome(text, fmt)


@pytest.mark.parametrize("end", list("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029") + ["\r\n"])
def test_sniff_every_line_end_closes_a_comment(end):
    for text, fmt in (("#x" + end + "p 1", "dimacs"), ("#x" + end + "3", "edgelist"),
                      ("#x" + end + "#c" + end + "c", "dimacs")):
        assert _sniff_reference(text) == fmt
        assert _outcome(text, "auto") == _outcome(text, fmt)
