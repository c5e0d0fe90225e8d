"""File formats: graph parsing, result serialization, DOT export.

This module is the only code that lays out input or output bytes: the
command line reads files through it and passes --output on to it.

Two graph formats.  "dimacs": optional comment lines "c ...", one
header "p edge <n> <m>", then edge lines "e <u> <v>" with 1-indexed
endpoints.  "edgelist": '#' comments, first significant line the
vertex count, then 0-indexed "u v" pairs.  This module is the only
code that knows them.  ``parse_graph_text`` splits the text into lines
once; format "auto" takes the first line whose first field does not
start with '#': "c" or "p" there means dimacs, anything else (or no
such line) edgelist.  The parser walks those lines once: every line is
validated once and its edge appended straight to per-vertex neighbour
lists, which ``graph.neighbor_tuples`` sorts and de-duplicates, as it
does for ``Graph(n, edges)``.  Parse errors name the line number and
quote the stripped line; a negative or too large vertex count is one
at its header line; duplicate edges collapse with a counted warning.
A parsed graph keeps O(n + m) neighbour tuples; the n-bit
neighbourhood masks, about n^2/4 bytes for both lists, are built only
when a solver asks for them, and orders above MAX_ORDER are refused
before anything is allocated.  Parsing, verification and the JSON
report of a verification run in time and memory linear in the input
and the violations; the report formats each distinct witness once.
"""

from __future__ import annotations

import json
import logging

from .bounds import BoundsReport
from .coloring import Coloring, VerificationReport
from .graph import Graph, neighbor_tuples
from .solvers import SolveResult

log = logging.getLogger(__name__)

_DOT_FILL = (
    "#a6cee3", "#1f78b4", "#b2df8a", "#33a02c", "#fb9a99", "#e31a1c",
    "#fdbf6f", "#ff7f00", "#cab2d6", "#6a3d9a", "#ffff99", "#b15928",
)


# largest vertex count a graph file may declare; parsing and verifying
# stay linear, while a solver's masks would take about 625 MB here
MAX_ORDER = 50_000


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


def _check_order(n: int, lineno: int):
    if n < 0:
        raise ParseError("line %d: vertex count must be nonnegative, got %d" % (lineno, n))
    if n > MAX_ORDER:
        raise ParseError(
            "line %d: %d vertices exceed the maximum order %d" % (lineno, n, MAX_ORDER)
        )


def parse_graph_text(text: str, fmt: str, strict: bool = True) -> Graph:
    """The graph in ``text``; ``fmt`` is "dimacs", "edgelist" or "auto".

    The text is split into lines once, and that list is both searched
    for the format and parsed.  "auto" reads the first line whose first
    field does not start with '#': "c" or "p" means dimacs, anything
    else, or no such line, edgelist.
    """
    lines = text.splitlines()
    if fmt == "auto":
        fmt = "edgelist"
        for raw in lines:
            fields = raw.split(None, 1)
            if fields and fields[0][0] != "#":
                if fields[0] in ("c", "p"):
                    fmt = "dimacs"
                break
    if fmt == "dimacs":
        n, nbrs, edge_lines = _parse_dimacs(lines, strict)
    elif fmt == "edgelist":
        n, nbrs, edge_lines = _parse_edgelist(lines)
    else:
        raise ParseError(
            "unknown graph format %r (expected auto, dimacs or edgelist)" % (fmt,)
        )
    # the lines go before the graph is built, so both are never held at once
    del lines
    return _build_deduplicated(n, nbrs, edge_lines)


def parse_graph_file(path, fmt: str = "edgelist", strict: bool = True) -> Graph:
    """Read a graph file; ``fmt`` is as for ``parse_graph_text``."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read(), fmt, strict)


# A line is blank when it has no fields and a comment when its first
# field starts with the prefix: the tests its stripped form would pass.
# Messages quote the stripped line, built only when one is raised.


def _parse_dimacs(lines, strict: bool):
    n = None
    declared_m = None
    nbrs = None
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields:
            continue
        head = fields[0]
        if head == "e":
            if n is None:
                raise ParseError("line %d: edge before problem line" % lineno)
            if len(fields) != 3:
                raise ParseError("line %d: malformed edge line %r" % (lineno, raw.strip()))
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("line %d: non-numeric edge %r" % (lineno, raw.strip())) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(
                    "line %d: endpoint out of range 1..%d in %r" % (lineno, n, raw.strip())
                )
            if u == v:
                raise ParseError("line %d: self-loop %r" % (lineno, raw.strip()))
            nbrs[u - 1].append(v - 1)
            nbrs[v - 1].append(u - 1)
        elif head[0] == "c":
            continue
        elif head == "p":
            if n is not None:
                raise ParseError("line %d: second problem line" % lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError("line %d: malformed problem line %r" % (lineno, raw.strip()))
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(
                    "line %d: non-numeric problem line %r" % (lineno, raw.strip())
                ) from None
            _check_order(n, lineno)
            nbrs = [[] for _ in range(n)]
        else:
            raise ParseError("line %d: unrecognized line %r" % (lineno, raw.strip()))
    if n is None:
        raise ParseError("no problem line found")
    edge_lines = sum(map(len, nbrs)) // 2
    if strict and edge_lines != declared_m:
        raise ParseError(
            "edge count mismatch: header declares %d, found %d edge lines"
            % (declared_m, edge_lines)
        )
    return n, nbrs, edge_lines


def _parse_edgelist(lines):
    n = None
    nbrs = None
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if n is None:
            if len(fields) != 1:
                raise ParseError(
                    "line %d: expected the vertex count, got %r" % (lineno, raw.strip())
                )
            try:
                n = int(fields[0])
            except ValueError:
                raise ParseError(
                    "line %d: non-numeric vertex count %r" % (lineno, raw.strip())
                ) from None
            _check_order(n, lineno)
            nbrs = [[] for _ in range(n)]
            continue
        if len(fields) != 2:
            raise ParseError("line %d: expected 'u v', got %r" % (lineno, raw.strip()))
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("line %d: non-numeric edge %r" % (lineno, raw.strip())) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError("line %d: endpoint out of range 0..%d" % (lineno, n - 1))
        if u == v:
            raise ParseError("line %d: self-loop" % lineno)
        nbrs[u].append(v)
        nbrs[v].append(u)
    if n is None:
        raise ParseError("empty graph file")
    return n, nbrs, sum(map(len, nbrs)) // 2


def _build_deduplicated(n: int, nbrs, edge_lines: int) -> Graph:
    """The graph of validated neighbour lists holding ``edge_lines``
    edges with repeats."""
    g = Graph.from_neighbor_tuples(n, neighbor_tuples(nbrs))
    dupes = edge_lines - g.edge_count
    if dupes:
        log.warning("collapsed %d duplicate edge declarations", dupes)
    return g


def write_graph_edgelist(g: Graph, comments=()) -> bytes:
    lines = ["# %s" % c for c in comments]
    lines.append(str(g.n))
    lines += ["%d %d" % e for e in g.edges()]
    return ("\n".join(lines) + "\n").encode()


def write_graph_dimacs(g: Graph, comments=()) -> bytes:
    """Emit "p edge n m" plus 1-indexed "e u v" lines."""
    lines = ["c %s" % c for c in comments]
    lines.append("p edge %d %d" % (g.n, g.edge_count))
    lines += ["e %d %d" % (u + 1, v + 1) for u, v in g.edges()]
    return ("\n".join(lines) + "\n").encode()


def parse_coloring_file(path, n: int) -> Coloring:
    """Two-column "vertex color" file, 0-indexed vertices, total on 0..n-1."""
    colors = [None] * n
    assigned = 0
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) != 2:
            raise ParseError("line %d: expected 'vertex color', got %r" % (lineno, raw.strip()))
        try:
            v, c = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("line %d: non-numeric entry %r" % (lineno, raw.strip())) from None
        if not 0 <= v < n:
            raise ParseError("line %d: vertex %d out of range 0..%d" % (lineno, v, n - 1))
        if colors[v] is not None:
            raise ParseError("line %d: vertex %d assigned twice" % (lineno, v))
        colors[v] = c
        assigned += 1
    if assigned != n:
        missing = [v for v, c in enumerate(colors) if c is None]
        raise ParseError("no color for vertices %r" % (missing[:10],))
    return Coloring(colors)


def _coloring_lines(c: Coloring) -> list:
    """The "vertex color" lines ``parse_coloring_file`` reads."""
    return ["%d %d" % vc for vc in enumerate(c.colors)]


def parse_vertex_set_file(path, n: int) -> frozenset:
    """Whitespace-separated vertex indices, '#' comments."""
    out = set()
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        for tok in fields:
            try:
                v = int(tok)
            except ValueError:
                raise ParseError("line %d: non-numeric vertex %r" % (lineno, tok)) from None
            if not 0 <= v < n:
                raise ParseError("line %d: vertex %d out of range" % (lineno, v))
            out.add(v)
    return frozenset(out)


# -- result serialization ----------------------------------------------


def _jsonable(result):
    if isinstance(result, dict):
        return result
    if isinstance(result, SolveResult):
        witness = result.witness
        if isinstance(witness, Coloring):
            witness = [[v, c] for v, c in enumerate(witness.colors)]
        elif isinstance(witness, frozenset):
            witness = sorted(witness)
        return {
            "parameter": result.parameter,
            "value": result.value,
            "status": result.status,
            "witness": witness,
            # wall time stays out: serialized results must be byte-reproducible
            "stats": {
                "nodes": result.stats.nodes,
                "per_k": [list(row) for row in result.stats.per_k],
                "clique": result.stats.clique,
                "lower_by": result.stats.lower_by,
                "upper_by": result.stats.upper_by,
            },
        }
    if isinstance(result, BoundsReport):
        return {
            "bounds": {
                "lower": [[v, prov] for v, prov in result.lower_bounds],
                "upper": [[v, prov] for v, prov in result.upper_bounds],
            },
            "best_lower": result.best_lower,
            "best_upper": result.best_upper,
            "exact": result.exact,
            "notes": list(result.notes),
        }
    if isinstance(result, VerificationReport):
        return {
            "mode": result.mode,
            "valid": result.valid,
            "violations": [
                {
                    "u": x.u,
                    "v": x.v,
                    "adjacent": x.adjacent,
                    "kind": x.kind,
                    "witness": sorted(x.witness),
                }
                for x in result.violations
            ],
        }
    if isinstance(result, Coloring):
        return {
            "colors": [[v, c] for v, c in enumerate(result.colors)],
            "palette": result.palette,
        }
    raise TypeError("cannot serialize %r" % (type(result),))


def _plain_lines(result) -> list:
    """The command line's text for a result, one string per line."""
    if isinstance(result, Coloring):
        return _coloring_lines(result)
    if isinstance(result, SolveResult):
        if result.status == "exact":
            lines = ["%s = %d" % (result.parameter, result.value)]
        else:
            lines = ["%s unresolved: node budget exhausted" % result.parameter]
        line = "# nodes=%d" % result.stats.nodes
        if result.stats.lower_by is not None:
            line += " lower_by=%s upper_by=%s" % (result.stats.lower_by, result.stats.upper_by)
        lines.append(line)
        if isinstance(result.witness, Coloring):
            lines += _coloring_lines(result.witness)
        elif isinstance(result.witness, frozenset):
            lines.append(" ".join(map(str, sorted(result.witness))))
        return lines
    if isinstance(result, VerificationReport):
        lines = ["%s: %s" % (result.mode, "valid" if result.valid else "invalid")]
        for x in result.violations:
            rel = "adjacent" if x.adjacent else "non-adjacent"
            lines.append("  %s pair (%d, %d): %s" % (rel, x.u, x.v, x.kind))
        return lines
    if isinstance(result, BoundsReport):
        lines = ["lower %d  (%s)" % bound for bound in result.lower_bounds]
        lines += ["upper %d  (%s)" % bound for bound in result.upper_bounds]
        lines.append("best: %d..%d%s" % (
            result.best_lower, result.best_upper,
            "  exact=%d" % result.exact if result.exact is not None else "",
        ))
        return lines + ["note: %s" % note for note in result.notes]
    raise TypeError("cannot serialize %r" % (type(result),))


def _line_bytes(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], prefix + k + "." if prefix else k + ".")
    else:
        yield prefix.rstrip("."), obj


# json.dumps(..., sort_keys=True, indent=2) runs the pure-Python encoder,
# which costs more than the search or verification it reports; the long
# lists of a result are laid out here instead, byte for byte alike
def _int_list_json(items, depth):
    """A list of ints laid out as the indenting encoder lays it out
    ``depth`` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[%s%s\n%s]" % (pad, ("," + pad).join(map(str, items)), "  " * depth)


# one [v, c] row of a solve result's coloring witness, two levels deep
_WITNESS_ROW = "    [\n      %d,\n      %d\n    ]"


def _witness_json(witness) -> str:
    """A solve result's witness laid out one level deep: a coloring as
    one template row per ``[v, c]`` pair, a vertex set as its sorted
    members."""
    if isinstance(witness, frozenset):
        return _int_list_json(sorted(witness), 1)
    if not witness.colors:
        return "[]"
    return "[\n%s\n  ]" % ",\n".join(map(_WITNESS_ROW.__mod__, enumerate(witness.colors)))


# one violation of a verification report, two levels deep
_VIOLATION_ROW = (
    "    {\n"
    '      "adjacent": %s,\n'
    '      "kind": %s,\n'
    '      "u": %d,\n'
    '      "v": %d,\n'
    '      "witness": %s\n'
    "    }"
)


def _verification_json(report: VerificationReport) -> str:
    """``json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\\n"``
    with one template row per violation; each distinct kind and witness
    is formatted once per call."""
    kinds = {}
    witnesses = {}
    rows = []
    for x in report.violations:
        kind = kinds.get(x.kind)
        if kind is None:
            kind = kinds[x.kind] = json.dumps(x.kind)
        witness = witnesses.get(x.witness)
        if witness is None:
            witness = witnesses[x.witness] = _int_list_json(sorted(x.witness), 3)
        rows.append(_VIOLATION_ROW % ("true" if x.adjacent else "false", kind, x.u, x.v, witness))
    head = '{\n  "mode": %s,\n  "valid": %s,\n  "violations": ' % (
        json.dumps(report.mode), "true" if report.valid else "false",
    )
    if not rows:
        return head + "[]\n}\n"
    # one join builds the text, so it is copied once
    rows[0] = head + "[\n" + rows[0]
    rows[-1] += "\n  ]\n}\n"
    return ",\n".join(rows)


def write_result(result, fmt: str = "json", comments=()) -> bytes:
    """Serialize a solve/bounds/verification result, a coloring or a dict
    (JSON as is) as "plain", "json" or "tsv"; stable field order.
    ``comments`` head plain text as '#' lines."""
    if fmt == "plain":
        return _line_bytes(["# " + line for line in comments] + _plain_lines(result))
    if fmt == "json" and isinstance(result, VerificationReport):
        return _verification_json(result).encode()
    obj = _jsonable(result)
    if fmt == "json":
        if isinstance(result, SolveResult) and obj["witness"] is not None:
            # "witness" sorts after every other key, so it closes the object
            del obj["witness"]
            witness = _witness_json(result.witness)
            head = json.dumps(obj, sort_keys=True, indent=2)[:-2]
            return (head + ',\n  "witness": ' + witness + "\n}\n").encode()
        return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "tsv":
        pairs = list(_flatten(obj))
        head = "\t".join(k for k, _ in pairs)
        row = "\t".join(json.dumps(v, sort_keys=True) for _, v in pairs)
        return (head + "\n" + row + "\n").encode()
    raise ParseError("unknown result format %r (expected plain, json or tsv)" % (fmt,))


def write_table(rows) -> bytes:
    """Tab-separated rows, one line each."""
    return _line_bytes(["\t".join(map(str, row)) for row in rows])


def write_coloring(g: Graph, c: Coloring, fmt: str, comments, roles) -> bytes:
    """A coloring of g; ``comments`` head plain text, ``roles`` (or None) tip DOT nodes."""
    if fmt == "dot":
        return export_dot(g, c, roles)
    return write_result(c, fmt, comments)


def write_no_coloring(g: Graph, parameter: str, k: int, fmt: str) -> bytes:
    """Decide's answer that g has no such coloring; DOT draws g uncolored."""
    if fmt == "dot":
        return export_dot(g)
    if fmt == "json":
        return write_result({"parameter": parameter, "k": k, "coloring": None}, "json")
    return ("no %s coloring with %d colors\n" % (parameter, k)).encode()


def write_quotient(q: Graph, part, fmt: str) -> bytes:
    """A twin quotient and its graph's partition; classes head the plain edge list."""
    if fmt == "dot":
        return export_dot(q)
    comments = ["twin classes with >= 2 members: %d" % part.t]
    comments += [
        "class %d: %s" % (i, " ".join(map(str, cls)))
        for i, cls in enumerate(part.classes)
    ]
    return write_graph_edgelist(q, comments)


def write_instance(inst, family: str, fmt: str) -> bytes:
    """A family instance; vertex roles head the plain edge list."""
    g, c = inst.graph, inst.canonical_coloring
    if fmt == "dot":
        return export_dot(g, c, inst.roles)
    if fmt == "json":
        return write_result({
            "family": family,
            "n": g.n,
            "edges": [[u, v] for u, v in g.edges()],
            "roles": {str(v): r for v, r in inst.roles.items()},
            "expected_rlid": inst.expected_chi_rlid,
            "coloring": None if c is None else _jsonable(c)["colors"],
        }, "json")
    comments = ["family %s  order %d" % (family, g.n)]
    if inst.expected_chi_rlid is not None:
        comments.append("expected rlid chromatic number: %d" % inst.expected_chi_rlid)
    for v in range(g.n):
        color = "" if c is None else "  color=%d" % c.colors[v]
        comments.append("vertex %d  role=%s%s" % (v, inst.roles[v], color))
    return write_graph_edgelist(g, comments)


def export_dot(g: Graph, coloring: Coloring | None = None, roles=None) -> bytes:
    """Graphviz source; colors cycle a fixed 12-entry fill palette, and
    ``roles``, a family instance's vertex -> role map, give tooltips."""
    lines = ["graph G {", "  node [style=filled];"]
    for v in range(g.n):
        attrs = []
        if coloring is not None:
            c = coloring.colors[v]
            attrs.append('label="%d:%d"' % (v, c))
            attrs.append('fillcolor="%s"' % _DOT_FILL[(c - 1) % len(_DOT_FILL)])
        else:
            attrs.append('label="%d"' % v)
            attrs.append('fillcolor="white"')
        if roles is not None:
            attrs.append('tooltip="%s"' % roles[v].replace('"', ""))
        lines.append("  %d [%s];" % (v, ", ".join(attrs)))
    for u, v in g.edges():
        lines.append("  %d -- %d;" % (u, v))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()
