"""Command line front end.

Subcommands: solve, decide, verify, bounds, quotient, construct,
color-bipartite, color-split, reduce, sweep.  Exit codes: 0 success,
1 infeasible or invalid, 2 usage error, 3 budget exhausted.  The
default node budget can be overridden with the RLID_NODE_BUDGET
environment variable.  Files are read and results laid out by ``io``,
which alone acts on --output; ``_emit_bytes`` writes them all, sweep's
table a row at a time as each row is computed.
"""

from __future__ import annotations

import argparse
import functools
import operator
import os
import random
import re
import sys
from itertools import chain, combinations, islice
from math import comb

from . import bounds as bounds_mod
from . import families, io, solvers
from .coloring import (  # noqa: F401  (verifiers are looked up by name)
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
    edge_mask,
    is_twin_free,
    max_clique_size,
    members,
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


# -- sweep columns and the assertion mini-grammar ------------------------


def _chi(name, g, budget):
    return solvers.chi_exact(g, name, budget).value


# sweep's columns: name -> fn(graph, budget), each column with a fresh budget
_SWEEP_COLUMNS = {
    "n": lambda g, budget: g.n,
    "m": lambda g, budget: g.edge_count,
    "t": lambda g, budget: twin_partition(g).t,
    "omega": lambda g, budget: max_clique_size(g, budget),
    **{name: functools.partial(_chi, name) for name in solvers.PARAMETERS},
    "gammaid": lambda g, budget: solvers.gamma_id_exact(g, budget).value,
    "quotient_rlid": lambda g, budget: _chi("rlid", quotient(g)[0], budget),
}
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
            if tok.isdecimal():  # isdigit() also takes "²", which int() rejects
                try:
                    value = int(tok)
                except ValueError:  # more digits than sys.get_int_max_str_digits() allows
                    raise UsageError(
                        "integer of %d digits in assertion exceeds the limit of %d digits"
                        % (len(tok), sys.get_int_max_str_digits())
                    ) from None
                terms.append((sign, value))
            elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
                if tok not in _SWEEP_COLUMNS:
                    raise UsageError(
                        "unknown name %r in assertion (allowed: %s)"
                        % (tok, ", ".join(_SWEEP_COLUMNS))
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


def _load_graph(args) -> Graph:
    if args.input_path is None:
        raise UsageError("this command needs --input")
    if args.input_path == "-":
        text = sys.stdin.read()
    else:
        with open(args.input_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return io.parse_graph_text(text, args.graph_format, args.strict)


def _emit_bytes(data, args):
    """The one writer of results: the --out file, else stdout.  ``data``
    is bytes, or an iterable of byte chunks written as they come."""
    chunks = (data,) if isinstance(data, bytes) else data
    if args.out_path:
        with open(args.out_path, "wb") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunk.decode() for chunk in chunks)


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
    _emit_bytes(io.write_result(res, args.output), args)
    return 3 if res.status == "budget-exceeded" else 0


def _cmd_decide(args) -> int:
    g = _load_graph(args)
    if args.k < 1:
        raise UsageError("decide needs --k >= 1")
    decide = getattr(solvers, solvers.PARAMETERS[args.parameter].decider)
    found = decide(g, args.k, _budget(args))
    if found is None:
        _emit_bytes(io.write_no_coloring(g, args.parameter, args.k, args.output), args)
        return 1
    _emit_bytes(io.write_coloring(g, found, args.output, (), None), args)
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
    _emit_bytes(io.write_result(report, args.output), args)
    return 0 if report.valid else 1


def _cmd_bounds(args) -> int:
    g = _load_graph(args)
    report = bounds_mod.bounds_report(g, budget=_budget(args))
    _emit_bytes(io.write_result(report, args.output), args)
    return 0


def _cmd_quotient(args) -> int:
    q, part = quotient(_load_graph(args))
    _emit_bytes(io.write_quotient(q, part, args.output), args)
    return 0


# the most edges construct builds or a random-split draw may have;
# io.MAX_ORDER bounds the vertices
MAX_CONSTRUCT_EDGES = 2_000_000


def _check_caps(what: str, order: int, edges: int):
    """Refuse ``what`` unbuilt when its order or edge count exceeds
    io.MAX_ORDER or MAX_CONSTRUCT_EDGES."""
    for name, value, top in zip(("order", "edge count"), (order, edges),
                                (io.MAX_ORDER, MAX_CONSTRUCT_EDGES)):
        if value > top:
            raise UsageError("%s exceeds the maximum %s %d" % (what, name, top))


def _size(args, size_of) -> int:
    """--size p, refused unbuilt when ``size_of(p)``, the instance's (order,
    edge count), exceeds io.MAX_ORDER or MAX_CONSTRUCT_EDGES."""
    if args.size is None:
        raise UsageError("construct needs --size for family %r" % (args.family,))
    p = args.size
    # every family's smallest size is positive, below it its builder raises GraphError
    if p > 0:
        _check_caps("construct %s --size %d" % (args.family, p), *size_of(p))
    return p


def _pow2(e: int) -> int:
    """2^e, or just past io.MAX_ORDER without forming 2^e for a larger e."""
    return 1 << e if e <= io.MAX_ORDER.bit_length() else io.MAX_ORDER + 1


def _prop1_size(p: int) -> tuple:
    """``prop1_graph(p)`` is g* of K_m, m^2 + m vertices, plus t twins."""
    t = comb(p - 1, 2)
    m = p + t
    return m * m + m + t, 3 * comb(m, 2) + m + t * (m + 1)


def _power_path_instance(k):
    g = families.power_path(k)
    return families.FamilyInstance(g, None, None, None, {i: "p:%d" % i for i in range(g.n)})


# construct's families: name -> builder of the instance from the options;
# a sized family gives _size its (order, edge count) at --size p
_FAMILIES = {
    "star": lambda args: families.star(_size(args, lambda p: (p + 1, p))),
    "power-path": lambda args: _power_path_instance(
        _size(args, lambda k: (2 * k, k * k - 1 + comb(k - 1, 2)))),
    "hp": lambda args: families.h_p(_size(
        args, lambda p: (_pow2(p) + 3 * p, comb(_pow2(p), 2) + p + p * _pow2(p) // 2))),
    "q1": lambda args: families.q1(_size(args, lambda p: (
        _pow2(p - 1) + p - 1, comb(_pow2(p - 1), 2) + (p - 1) * _pow2(p - 1) // 2))),
    "q2": lambda args: families.q2(_size(args, lambda p: (2 * p - 1, comb(p, 2) + p - 1))),
    "prop1": lambda args: families.prop1_graph(_size(args, _prop1_size)),
    "gstar": lambda args: families.g_star(_load_graph(args)),
}


def _cmd_construct(args) -> int:
    _emit_bytes(io.write_instance(_FAMILIES[args.family](args), args.family, args.output), args)
    return 0


def _cmd_color_bipartite(args) -> int:
    g = _load_graph(args)
    c, levels = families.bipartite_three_coloring(g)
    comments = ["root %d, %d levels" % (levels.root, len(levels.levels))]
    _emit_bytes(io.write_coloring(g, c, args.output, comments, None), args)
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
    part = families.maximal_split_partition(g, part)
    c = families.split_rlid_coloring(g, part)
    comments = ["clique %s" % " ".join(map(str, sorted(part.clique)))]
    _emit_bytes(io.write_coloring(g, c, args.output, comments, None), args)
    return 0


def _cmd_reduce(args) -> int:
    g = _load_graph(args)
    inst = families.g_star(g)
    if args.action == "gadget":
        # the same instance as "construct gstar", with the same bytes
        _emit_bytes(io.write_instance(inst, "gstar", args.output), args)
        return 0
    if args.certificate_path is None:
        raise UsageError("reduce --action %s needs --certificate" % args.action)
    if args.action == "lift":
        if args.k is None:
            raise UsageError("reduce --action lift needs --k")
        base = io.parse_coloring_file(args.certificate_path, g.n)
        lifted = families.lift_coloring_gstar(g, base, args.k)
        _emit_bytes(io.write_coloring(inst.graph, lifted, args.output, (), inst.roles), args)
        return 0
    if args.action == "project":
        gadget_col = io.parse_coloring_file(args.certificate_path, inst.graph.n)
        projected = families.project_coloring_gstar(inst, gadget_col)
        _emit_bytes(io.write_coloring(g, projected, args.output, (), None), args)
        return 0
    raise UsageError("unknown reduce action %r" % (args.action,))


# -- sweep --------------------------------------------------------------


def _random_twins_graph(seed: int) -> Graph:
    """Small seeded graph with at least one deliberate closed-twin pair."""
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
    g = Graph(n, edges)
    for _ in range(rng.randint(1, 2)):
        x = rng.randrange(g.n)
        closed = g.adj[x] | (1 << x)
        masks = list(g.adj) + [closed]
        for v in members(closed):
            masks[v] |= 1 << g.n
        g = Graph.from_adj_masks(g.n + 1, masks)
    return g


# random-split's draw options and their defaults; no other family takes them
_SPLIT_DRAW = {"clique_size": 6, "stable_size": 6, "edge_prob": 0.5}


def _check_split_draw(args):
    """Fill in random-split's draw options, or refuse them for any other
    family.  Called before any graph is drawn, so a bad value, or sizes
    whose rows could not be written, is a usage error rather than a
    failed draw."""
    if args.family != "random-split":
        for name in _SPLIT_DRAW:
            if getattr(args, name) is not None:
                raise UsageError(
                    "--%s applies to --family random-split only" % name.replace("_", "-")
                )
        return
    for name, default in _SPLIT_DRAW.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    for flag, size in (("--clique-size", args.clique_size), ("--stable-size", args.stable_size)):
        if size < 1:
            raise UsageError("%s must be at least 1, got %d" % (flag, size))
    if not 0 <= args.edge_prob <= 1:
        raise UsageError("--edge-prob must be in [0, 1], got %r" % (args.edge_prob,))
    # a row's edge mask numbers the clique's pairs before the stable pairs,
    # which are never edges, so it has as many bits as the fullest draw has edges
    a, b = args.clique_size, args.stable_size
    what = "random-split --clique-size %d --stable-size %d" % (a, b)
    edges = comb(a, 2) + a * b
    _check_caps(what, a + b, edges)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    if digits:
        top = (10 ** digits).bit_length() - 1  # the most bits str() writes in ``digits`` digits
        if edges > top:
            raise UsageError("%s may draw an edge mask of %d bits, more than the %d that fit "
                             "the %d-digit limit of sys.get_int_max_str_digits()"
                             % (what, edges, top, digits))


def _enumerated(predicate, args):
    """The graphs of orders --min-n..--max-n passing ``predicate``; checks the bounds now."""
    top = solvers.MAX_ENUMERATION_ORDER
    for flag, order in (("--min-n", args.min_n), ("--max-n", args.max_n)):
        if not 0 <= order <= top:
            raise UsageError("%s must be in 0..%d, got %d" % (flag, top, order))
    orders, iso = range(args.min_n, args.max_n + 1), args.up_to_iso
    return (g for n in orders for g in solvers.enumerate_graphs(n, predicate, up_to_iso=iso))


def _drawn(draw, args):
    """--count graphs ``draw(args, seed)``, seeds from --seed; checks --count now."""
    if args.count < 0:
        raise UsageError("--count must be at least 0, got %d" % args.count)
    return (draw(args, seed) for seed in range(args.seed, args.seed + args.count))


# sweep's families: name -> fn(args) -> the family's graphs, in row order
_SWEEP_FAMILIES = {
    "all": functools.partial(_enumerated, None),
    "connected": functools.partial(_enumerated, Graph.is_connected),
    "bipartite": functools.partial(_enumerated, lambda g: bipartition(g) is not None),
    "twin-free": functools.partial(_enumerated, is_twin_free),
    "split": functools.partial(_enumerated, lambda g: families.find_split_partition(g) is not None),
    "random-split": functools.partial(_drawn, lambda a, seed: families.random_split_graph(
        seed, a.clique_size, a.stable_size, a.edge_prob)[0]),
    "random-twins": functools.partial(_drawn, lambda a, seed: _random_twins_graph(seed)),
}


def _sweep_row(task):
    """Append the edge mask and the columns' values to the task's row, a
    skipped value as why: "budget" for a budget stop, "precondition" for
    a GraphError; module-level so a pool can pickle it."""
    row, adj, names, node_budget = task
    g = Graph.from_adj_masks(row[1], adj)
    row.append(edge_mask(g))
    for name in names:
        try:
            value = _SWEEP_COLUMNS[name](g, solvers.Budget(node_budget))
        except (GraphError, BudgetExceeded) as exc:
            value = "precondition" if isinstance(exc, GraphError) else None
        row.append("budget" if value is None else value)  # None: a search's budget stop
    return row


def _sweep_rows(tasks, jobs):
    """The tasks' rows in order, from a pool of one worker per task among
    the first ``jobs``, or from this process when that is one."""
    # the executor forks all its workers on the first submit
    head = list(islice(tasks, jobs))
    tasks = chain(head, tasks)
    if len(head) < 2:
        yield from map(_sweep_row, tasks)
        return
    # imported here: it costs every other command its start-up time
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(head)) as pool:
        # Executor.map submits all it is given before it yields anything
        while batch := list(islice(tasks, 4096)):
            yield from pool.map(_sweep_row, batch, chunksize=64)


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1, got %d" % args.jobs)
    graphs = _SWEEP_FAMILIES[args.family](args)  # each made when read, after the checks
    _check_split_draw(args)
    for name in args.params:
        if name not in _SWEEP_COLUMNS:
            raise UsageError("unknown sweep parameter %r (allowed: %s)"
                             % (name, ", ".join(_SWEEP_COLUMNS)))
    check = None
    names = tuple(args.params)
    if args.assertion:
        needed, check = parse_assertion(args.assertion)
        names += tuple(x for x in sorted(needed) if x not in names)
    tasks = (([args.family, g.n, i], g.adj, names, args.node_budget)
             for i, g in enumerate(graphs))
    rows = _sweep_rows(tasks, min(args.jobs, os.cpu_count() or 1))
    header = ["family", "n", "index", "mask", *names]
    if check is not None:
        header.append("assert")
    tally = dict.fromkeys(("graphs", "pass", "fail", "skip"), 0)

    def table():
        yield io.write_table([header])
        for row in rows:
            tally["graphs"] += 1
            if check is not None:
                values = row[4:]
                verdict = ("skip" if any(isinstance(x, str) for x in values)
                           else "pass" if check(dict(zip(names, values))) else "fail")
                tally[verdict] += 1
                row.append(verdict)
            yield io.write_table([row])

    _emit_bytes(table(), args)
    print("sweep: %d graphs, %d failures, %d skipped"
          % (tally["graphs"], tally["fail"], tally["skip"]), file=sys.stderr)
    return 1 if tally["fail"] else 0


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``rlid`` argument parser, built once per process.

    Every call returns the same shared parser, so callers must not
    mutate it.  It depends on nothing that changes at run time: the
    ``choices`` are module constants, handlers look up solvers and
    verifiers by module attribute when they run, and each
    ``parse_args`` call returns a fresh namespace.
    """
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
    s.add_argument("family", choices=tuple(_FAMILIES))
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
                   choices=tuple(_SWEEP_FAMILIES),
                   help="an enumerated family (orders --min-n..--max-n), or --count "
                        "seeded draws: random-split (the only family that takes the "
                        "three options below) or random-twins (order 3..7 plus twins)")
    s.add_argument("--min-n", type=int, default=1)
    s.add_argument("--max-n", type=int, default=6)
    s.add_argument("--count", type=int, default=20, help="draws for random families")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--clique-size", type=int, default=None,
                   help="random-split clique side, at least 1 (default 6)")
    s.add_argument("--stable-size", type=int, default=None,
                   help="random-split stable side, at least 1 (default 6)")
    s.add_argument("--edge-prob", type=float, default=None,
                   help="random-split clique-stable edge probability in [0, 1] (default 0.5)")
    s.add_argument("--up-to-iso", action="store_true",
                   help="keep one representative per isomorphism class")
    s.add_argument("--params", default="rlid",
                   type=lambda text: tuple(x for x in text.split(",") if x),
                   help="comma separated: %s" % ", ".join(_SWEEP_COLUMNS))
    s.add_argument("--assert", dest="assertion", default=None,
                   help='per-graph check, e.g. "rlid <= omega + 2"')
    s.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most the CPU count and the row count")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "node_budget" in args:
            if args.node_budget is None:
                args.node_budget = _env_node_budget()
            elif args.node_budget < 1:
                raise UsageError("--node-budget must be positive, got %d" % args.node_budget)
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
