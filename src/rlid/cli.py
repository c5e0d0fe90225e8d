"""Command line front end.

Subcommands: solve, decide, verify, bounds, quotient, construct,
color-bipartite, color-split, reduce, sweep.  Exit codes: 0 success,
1 infeasible or invalid, 2 usage error, 3 budget exhausted.  The
default node budget can be overridden with the RLID_NODE_BUDGET
environment variable.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations

from . import bounds as bounds_mod
from . import families, io, solvers
from .coloring import (  # noqa: F401  (verifiers are looked up by name)
    Coloring,
    ColoringError,
    verify_id,
    verify_identifying_code,
    verify_lid,
    verify_proper,
    verify_rlid,
)
from .graph import (
    BudgetExceeded,
    Graph,
    GraphError,
    bipartition,
    bits,
    edge_mask,
    graph_from_edge_mask,
    is_twin_free,
    max_clique_size,
    quotient,
    twin_partition,
)


class UsageError(ValueError):
    """Bad flag combination or malformed assertion expression."""


def _env_node_budget() -> int:
    raw = os.environ.get("RLID_NODE_BUDGET")
    if raw is None:
        return solvers.DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise UsageError("RLID_NODE_BUDGET must be an integer, got %r" % (raw,)) from None
    if value < 1:
        raise UsageError("RLID_NODE_BUDGET must be positive, got %d" % value)
    return value


# -- assertion mini-grammar ---------------------------------------------

_SWEEP_PARAMS = ("n", "m", "t", "omega", *solvers.PARAMETERS, "gammaid", "quotient_rlid")
_CMP = {
    "<=": operator.le, ">=": operator.ge, "==": operator.eq,
    "!=": operator.ne, "<": operator.lt, ">": operator.gt,
}


def _parse_terms(text: str):
    tokens = re.findall(r"[A-Za-z_][A-Za-z0-9_]*|\d+|\S", text)
    terms = []
    sign, expect_atom = 1, True
    for tok in tokens:
        if expect_atom:
            if tok.isdigit():
                terms.append((sign, int(tok)))
            elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
                if tok not in _SWEEP_PARAMS:
                    raise UsageError(
                        "unknown name %r in assertion (allowed: %s)"
                        % (tok, ", ".join(_SWEEP_PARAMS))
                    )
                terms.append((sign, tok))
            else:
                raise UsageError("expected a name or integer, got %r" % (tok,))
            sign, expect_atom = 1, False
        else:
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            else:
                raise UsageError("expected + or - before %r" % (tok,))
            expect_atom = True
    if expect_atom or not terms:
        raise UsageError("incomplete expression %r" % (text,))
    return terms


def parse_assertion(expr: str):
    """Compile "rlid <= omega + 2" style checks.

    Grammar: side CMP side, each side a +/- chain of parameter names
    and integer literals.  Returns (referenced names, evaluator); the
    evaluator maps a {name: value} environment to a bool.
    """
    m = re.fullmatch(r"(.*?)(<=|>=|==|!=|<|>)(.*)", expr, re.S)
    if m is None:
        raise UsageError("assertion %r has no comparison operator" % (expr,))
    left, op, right = _parse_terms(m.group(1)), _CMP[m.group(2)], _parse_terms(m.group(3))
    names = frozenset(a for side in (left, right) for _, a in side if isinstance(a, str))

    def evaluate(env) -> bool:
        def total(side):
            return sum(s * (env[a] if isinstance(a, str) else a) for s, a in side)

        return op(total(left), total(right))

    return names, evaluate


# -- shared helpers -----------------------------------------------------


def _budget(args) -> solvers.Budget:
    return solvers.Budget(args.node_budget)


def _sniff_format(text: str) -> str:
    # dimacs always opens with "c ..." or "p edge ..."; an edgelist opens
    # with "#" comments or the vertex count, so the first line settles it
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head = line.split(None, 1)[0]
        return "dimacs" if head in ("c", "p") else "edgelist"
    return "edgelist"


def _load_graph(args) -> Graph:
    if args.input_path is None:
        raise UsageError("this command needs --input")
    if args.input_path == "-":
        text = sys.stdin.read()
    else:
        with open(args.input_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    fmt = args.graph_format if args.graph_format != "auto" else _sniff_format(text)
    return io.parse_graph_text(text, fmt, args.strict)


def _emit_bytes(data: bytes, args):
    """The one writer of results: the --out file, else stdout."""
    if args.out_path:
        with open(args.out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


def _emit_lines(lines, args):
    _emit_bytes("".join(line + "\n" for line in lines).encode(), args)


def _emit_coloring(c: Coloring, args, g: Graph, comments=()):
    """Emit a coloring; ``comments`` become "#" header lines in plain output."""
    if args.output == "json":
        _emit_bytes(io.write_result(c, "json"), args)
    elif args.output == "dot":
        _emit_bytes(io.export_dot(g, c), args)
    else:
        header = ["# " + line for line in comments]
        _emit_lines(header + ["%d %d" % (v, k) for v, k in enumerate(c.colors)], args)


def _print_solve_plain(res: solvers.SolveResult, args):
    lines = []
    if res.status == "exact":
        lines.append("%s = %d" % (res.parameter, res.value))
    else:
        lines.append("%s unresolved: node budget exhausted" % res.parameter)
    lines.append("# nodes=%d" % res.stats.nodes)
    if isinstance(res.witness, Coloring):
        lines += ["%d %d" % (v, k) for v, k in enumerate(res.witness.colors)]
    elif isinstance(res.witness, frozenset):
        lines.append(" ".join(str(v) for v in sorted(res.witness)))
    _emit_lines(lines, args)


# -- command handlers ---------------------------------------------------
#
# Each handler takes the argparse namespace of its subcommand and
# returns the exit code.  Parameter names, their deciders and their
# verifiers come from solvers.PARAMETERS.


def _cmd_solve(args) -> int:
    g = _load_graph(args)
    if args.parameter == "gammaid":
        res = solvers.gamma_id_exact(g, _budget(args))
    else:
        res = solvers.chi_exact(g, args.parameter, _budget(args), search_two=args.search_two)
    if args.output in ("json", "tsv"):
        _emit_bytes(io.write_result(res, args.output), args)
    else:
        _print_solve_plain(res, args)
    return 3 if res.status == "budget-exceeded" else 0


def _cmd_decide(args) -> int:
    g = _load_graph(args)
    if args.k < 1:
        raise UsageError("decide needs --k >= 1")
    decide = getattr(solvers, solvers.PARAMETERS[args.parameter].decider)
    found = decide(g, args.k, _budget(args))
    if found is None:
        if args.output == "json":
            obj = {"parameter": args.parameter, "k": args.k, "coloring": None}
            _emit_bytes((json.dumps(obj, sort_keys=True, indent=2) + "\n").encode(), args)
        elif args.output == "dot":
            _emit_bytes(io.export_dot(g), args)
        else:
            _emit_lines(["no %s coloring with %d colors" % (args.parameter, args.k)], args)
        return 1
    _emit_coloring(found, args, g)
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args)
    if args.mode == "code":
        code = io.parse_vertex_set_file(args.certificate_path, g.n)
        report = verify_identifying_code(g, code)
    else:
        c = io.parse_coloring_file(args.certificate_path, g.n)
        # this module's attribute, read at call time, so patching it here works
        report = globals()[solvers.PARAMETERS[args.mode].verifier](g, c)
    if args.output in ("json", "tsv"):
        _emit_bytes(io.write_result(report, args.output), args)
    else:
        lines = ["%s: %s" % (report.mode, "valid" if report.valid else "invalid")]
        for x in report.violations:
            rel = "adjacent" if x.adjacent else "non-adjacent"
            lines.append("  %s pair (%d, %d): %s" % (rel, x.u, x.v, x.kind))
        _emit_lines(lines, args)
    return 0 if report.valid else 1


def _cmd_bounds(args) -> int:
    g = _load_graph(args)
    report = bounds_mod.bounds_report(g, budget=_budget(args))
    if args.output in ("json", "tsv"):
        _emit_bytes(io.write_result(report, args.output), args)
        return 0
    lines = ["lower %d  (%s)" % bound for bound in report.lower_bounds]
    lines += ["upper %d  (%s)" % bound for bound in report.upper_bounds]
    lines.append("best: %d..%d%s" % (
        report.best_lower, report.best_upper,
        "  exact=%d" % report.exact if report.exact is not None else "",
    ))
    lines += ["note: %s" % note for note in report.notes]
    _emit_lines(lines, args)
    return 0


def _cmd_quotient(args) -> int:
    g = _load_graph(args)
    q, part = quotient(g)
    if args.output == "dot":
        _emit_bytes(io.export_dot(q), args)
        return 0
    comments = ["twin classes with >= 2 members: %d" % part.t]
    comments += [
        "class %d: %s" % (i, " ".join(map(str, cls)))
        for i, cls in enumerate(part.classes)
    ]
    _emit_bytes(io.write_graph_edgelist(q, comments), args)
    return 0


_FAMILIES = ("star", "power-path", "hp", "q1", "q2", "prop1", "gstar")


def _make_family(args):
    if args.family == "gstar":
        return families.g_star(_load_graph(args))
    if args.size is None:
        raise UsageError("construct needs --size for family %r" % (args.family,))
    p = args.size
    if args.family == "star":
        return families.star(p)
    if args.family == "power-path":
        g = families.power_path(p)
        return families.FamilyInstance(g, None, None, None, dict(enumerate(g.labels)))
    if args.family == "hp":
        return families.h_p(p)
    if args.family == "q1":
        return families.q1(p)
    if args.family == "q2":
        return families.q2(p)
    if args.family == "prop1":
        return families.prop1_graph(p)
    raise UsageError("unknown family %r (choose from %s)" % (args.family, ", ".join(_FAMILIES)))


def _emit_instance(inst, args, family: str, comments):
    """Emit a family instance; ``comments`` head the plain edge list."""
    g = inst.graph
    if args.output == "dot":
        _emit_bytes(io.export_dot(g, inst.canonical_coloring), args)
    elif args.output == "json":
        obj = {
            "family": family,
            "n": g.n,
            "edges": [[u, v] for u, v in g.edges()],
            "roles": {str(v): r for v, r in inst.roles.items()},
            "expected_rlid": inst.expected_chi_rlid,
            "coloring": None if inst.canonical_coloring is None
                        else [[v, c] for v, c in enumerate(inst.canonical_coloring.colors)],
        }
        _emit_bytes((json.dumps(obj, sort_keys=True, indent=2) + "\n").encode(), args)
    else:
        _emit_bytes(io.write_graph_edgelist(g, comments), args)


def _cmd_construct(args) -> int:
    inst = _make_family(args)
    g = inst.graph
    comments = ["family %s  order %d" % (args.family, g.n)]
    if inst.expected_chi_rlid is not None:
        comments.append("expected rlid chromatic number: %d" % inst.expected_chi_rlid)
    for v in range(g.n):
        parts = ["vertex %d" % v, "role=%s" % inst.roles.get(v, "?")]
        if inst.canonical_coloring is not None:
            parts.append("color=%d" % inst.canonical_coloring.colors[v])
        comments.append("  ".join(parts))
    _emit_instance(inst, args, args.family, comments)
    return 0


def _cmd_color_bipartite(args) -> int:
    g = _load_graph(args)
    c, levels = families.bipartite_three_coloring(g)
    _emit_coloring(c, args, g, ["root %d, %d levels" % (levels.root, len(levels.levels))])
    return 0


def _parse_vertex_list(text: str, n: int) -> frozenset:
    try:
        chosen = frozenset(int(tok) for tok in re.split(r"[,\s]+", text.strip()) if tok)
    except ValueError:
        raise UsageError("bad vertex list %r" % (text,)) from None
    if any(not 0 <= v < n for v in chosen):
        raise UsageError("vertex list %r out of range 0..%d" % (text, n - 1))
    return chosen


def _cmd_color_split(args) -> int:
    g = _load_graph(args)
    if args.clique is not None:
        clique = _parse_vertex_list(args.clique, g.n)
        part = families.SplitPartition(clique, frozenset(range(g.n)) - clique)
    else:
        part = families.find_split_partition(g)
        if part is None:
            print("no clique/stable partition exists", file=sys.stderr)
            return 1
    c = families.split_rlid_coloring(g, part)
    # split_rlid_coloring validated the partition and colored its repair
    part = families._maximalize_split(g, part)
    _emit_coloring(c, args, g, ["clique %s" % " ".join(map(str, sorted(part.clique)))])
    return 0


def _cmd_reduce(args) -> int:
    g = _load_graph(args)
    inst = families.g_star(g)
    if args.action == "gadget":
        # the same instance as "construct gstar", with the same outputs
        comments = ["gadget of a %d-vertex input, order %d" % (g.n, inst.graph.n)]
        comments += ["vertex %d  role=%s" % (v, inst.roles[v]) for v in range(inst.graph.n)]
        _emit_instance(inst, args, "gstar", comments)
        return 0
    if args.certificate_path is None:
        raise UsageError("reduce --action %s needs --certificate" % args.action)
    if args.action == "lift":
        if args.k is None:
            raise UsageError("reduce --action lift needs --k")
        base = io.parse_coloring_file(args.certificate_path, g.n)
        _emit_coloring(families.lift_coloring_gstar(g, base, args.k, inst), args, inst.graph)
        return 0
    if args.action == "project":
        gadget_col = io.parse_coloring_file(args.certificate_path, inst.graph.n)
        _emit_coloring(families.project_coloring_gstar(inst, gadget_col), args, g)
        return 0
    raise UsageError("unknown reduce action %r" % (args.action,))


# -- sweep --------------------------------------------------------------


def _random_twins_graph(seed: int) -> Graph:
    """Small seeded graph with at least one deliberate closed-twin pair."""
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(3, 7)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
    g = Graph(n, edges)
    for _ in range(rng.randint(1, 2)):
        x = rng.randrange(g.n)
        closed = g.adj[x] | (1 << x)
        masks = list(g.adj) + [closed]
        for v in bits(closed):
            masks[v] |= 1 << g.n
        g = Graph.from_adj_masks(g.n + 1, masks)
    return g


_ENUMERATED_FAMILIES = {
    "all": None,
    "connected": Graph.is_connected,
    "bipartite": lambda g: bipartition(g) is not None,
    "twin-free": is_twin_free,
    "split": lambda g: families.find_split_partition(g) is not None,
}


def _sweep_graphs(args):
    """Yield (family, index, graph) deterministically."""
    fam = args.family
    if fam == "random-split":
        for i in range(args.count):
            g, _ = solvers.random_split_graph(
                args.seed + i, args.clique_size, args.stable_size, args.edge_prob
            )
            yield fam, i, g
    elif fam == "random-twins":
        for i in range(args.count):
            yield fam, i, _random_twins_graph(args.seed + i)
    else:
        predicate = _ENUMERATED_FAMILIES[fam]
        index = 0
        for order in range(args.min_n, args.max_n + 1):
            for g in solvers.enumerate_graphs(order, predicate, up_to_iso=args.up_to_iso):
                yield fam, index, g
                index += 1


def _sweep_row(task):
    """Compute one row; module-level so a process pool can pickle it."""
    fam, index, n, mask, names, node_budget = task
    g = graph_from_edge_mask(n, mask)
    row = {}
    for name in names:
        try:
            if name == "n":
                row[name] = g.n
            elif name == "m":
                row[name] = g.edge_count
            elif name == "t":
                row[name] = twin_partition(g).t
            elif name == "omega":
                row[name] = max_clique_size(g)
            elif name in solvers.PARAMETERS:
                row[name] = solvers.chi_exact(
                    g, name, solvers.Budget(node_budget), search_two=True
                ).value
            elif name == "gammaid":
                row[name] = solvers.gamma_id_exact(g, solvers.Budget(node_budget)).value
            elif name == "quotient_rlid":
                q, _ = quotient(g)
                row[name] = solvers.chi_exact(
                    q, "rlid", solvers.Budget(node_budget), search_two=True
                ).value
        except (GraphError, BudgetExceeded):
            row[name] = None
    return fam, index, n, mask, row


def _cmd_sweep(args) -> int:
    for name in args.params:
        if name not in _SWEEP_PARAMS:
            raise UsageError(
                "unknown sweep parameter %r (allowed: %s)" % (name, ", ".join(_SWEEP_PARAMS))
            )
    check = None
    names = tuple(args.params)
    if args.assertion:
        needed, check = parse_assertion(args.assertion)
        names += tuple(x for x in sorted(needed) if x not in names)
    tasks = [
        (fam, index, g.n, edge_mask(g), names, args.node_budget)
        for fam, index, g in _sweep_graphs(args)
    ]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_row, tasks, chunksize=64))
    else:
        results = [_sweep_row(t) for t in tasks]

    header = ["family", "n", "index", "mask"] + list(names)
    if check is not None:
        header.append("assert")
    out = ["\t".join(header)]
    failures = skipped = 0
    for fam, index, n, mask, row in results:
        cells = [fam, str(n), str(index), str(mask)]
        cells += ["-" if row[name] is None else str(row[name]) for name in names]
        if check is not None:
            if any(row[name] is None for name in row):
                verdict = "skip"
                skipped += 1
            elif check(row):
                verdict = "pass"
            else:
                verdict = "fail"
                failures += 1
            cells.append(verdict)
        out.append("\t".join(cells))
    _emit_lines(out, args)
    print(
        "sweep: %d graphs, %d failures, %d skipped" % (len(results), failures, skipped),
        file=sys.stderr,
    )
    return 1 if failures else 0


# -- argument parsing ---------------------------------------------------


# --output formats: result reports, and colorings or graphs
_REPORT = ("plain", "json", "tsv")
_COLORING = ("plain", "json", "dot")


def _command(sub, name, handler, help, outputs=None, *, budget=False):
    """A subcommand with the options its handler reads.

    A command that reads a graph file gets the input options and an
    --output offering the ``outputs`` it renders; sweep reads no file
    and always writes TSV.
    """
    s = sub.add_parser(name, help=help)
    s.set_defaults(handler=handler)
    if outputs is not None:
        s.add_argument("--input", "-i", dest="input_path", required=False,
                       help="graph file; '-' reads stdin")
        s.add_argument("--format", dest="graph_format", default="auto",
                       choices=("auto", "dimacs", "edgelist"))
        s.add_argument("--lenient", dest="strict", action="store_false",
                       help="tolerate an edge-count mismatch in dimacs headers")
        s.add_argument("--output", "-o", dest="output", default="plain", choices=outputs)
    s.add_argument("--out", dest="out_path", default=None,
                   help="write to a file instead of stdout")
    if budget:
        s.add_argument("--node-budget", type=int, default=None,
                       help="search node limit (default RLID_NODE_BUDGET or %d)"
                            % solvers.DEFAULT_NODE_BUDGET)
    return s


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlid",
        description="Relaxed locally identifying colorings: exact solvers, "
                    "verifiers, constructions, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = _command(sub, "solve", _cmd_solve, "exact optimum of a coloring parameter", _REPORT,
                 budget=True)
    s.add_argument("--parameter", default="rlid", choices=(*solvers.PARAMETERS, "gammaid"))
    s.add_argument("--search-two", action="store_true",
                   help="also try two colors instead of citing the no-two-color rule")

    s = _command(sub, "decide", _cmd_decide, "is there a valid coloring with k colors?",
                 _COLORING, budget=True)
    s.add_argument("--parameter", default="rlid", choices=tuple(solvers.PARAMETERS))
    s.add_argument("--k", type=int, required=True)

    s = _command(sub, "verify", _cmd_verify, "check a coloring or code file", _REPORT)
    s.add_argument("--mode", default="rlid", choices=(*solvers.PARAMETERS, "code"))
    s.add_argument("--certificate", dest="certificate_path", required=True,
                   help="coloring file ('vertex color' lines) or vertex set for --mode code")

    _command(sub, "bounds", _cmd_bounds, "cheap lower/upper bounds report", _REPORT, budget=True)
    _command(sub, "quotient", _cmd_quotient, "collapse twin classes to representatives",
             ("plain", "dot"))

    s = _command(sub, "construct", _cmd_construct, "emit a named family instance", _COLORING)
    s.add_argument("family", choices=_FAMILIES)
    s.add_argument("--size", "--p", "-p", type=int, default=None,
                   help="family size parameter (leaves, clique exponent, ...)")
    s.add_argument("--dot", dest="output", action="store_const", const="dot",
                   help="shorthand for --output dot")

    _command(sub, "color-bipartite", _cmd_color_bipartite,
             "three-color a connected bipartite graph", _COLORING)

    s = _command(sub, "color-split", _cmd_color_split,
                 "color a split graph within clique size + 2", _COLORING)
    s.add_argument("--clique", default=None,
                   help="comma separated clique side; found from the degree sequence if omitted")

    s = _command(sub, "reduce", _cmd_reduce, "proper-coloring gadget: emit, lift, project",
                 _COLORING)
    s.add_argument("--action", default="gadget", choices=("gadget", "lift", "project"))
    s.add_argument("--certificate", dest="certificate_path", default=None)
    s.add_argument("--k", type=int, default=None)

    s = _command(sub, "sweep", _cmd_sweep, "tabulate parameters over a graph family",
                 budget=True)
    s.add_argument("--family", default="connected",
                   choices=(*_ENUMERATED_FAMILIES, "random-split", "random-twins"))
    s.add_argument("--min-n", type=int, default=1)
    s.add_argument("--max-n", type=int, default=6)
    s.add_argument("--count", type=int, default=20, help="draws for random families")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--clique-size", type=int, default=6)
    s.add_argument("--stable-size", type=int, default=6)
    s.add_argument("--edge-prob", type=float, default=0.5)
    s.add_argument("--up-to-iso", action="store_true",
                   help="keep one representative per isomorphism class")
    s.add_argument("--params", default="rlid",
                   type=lambda text: tuple(x for x in text.split(",") if x),
                   help="comma separated: %s" % ", ".join(_SWEEP_PARAMS))
    s.add_argument("--assert", dest="assertion", default=None,
                   help='per-graph check, e.g. "rlid <= omega + 2"')
    s.add_argument("--jobs", type=int, default=1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "node_budget" in args and args.node_budget is None:
            args.node_budget = _env_node_budget()
        return args.handler(args)
    except BrokenPipeError:
        return 0
    except BudgetExceeded as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return 3
    except families.TheoremCounterexample as exc:
        print("GUARANTEE FAILED: %s" % exc, file=sys.stderr)
        return 1
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (io.ParseError, GraphError, ColoringError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
