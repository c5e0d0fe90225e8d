"""The four workloads: inputs made from a seed, one timed call per
operation, and a check of every answer outside the timed call.

Every workload is a fixed input set that the seed generates or orders.
A pass runs each operation once, in the seeded order; the harness in
``run.py`` repeats whole passes, so every run times the same multiset
of operations.  Each workload names the node budget every solve gets;
none sets a time budget, and the CLI always gets ``--node-budget``, so
``RLID_NODE_BUDGET`` never applies.
"""

from __future__ import annotations

import collections
import json
import os
import random
import shutil
import sys

from rlid import cli, coloring, families, graph, solvers
from rlid.graph import BudgetExceeded

from checks import (
    CATALOG6_HISTOGRAM,
    check_coloring,
    colorable,
    is_proper,
    require,
    rlid_violations,
)


def edge_list(g):
    """0-indexed edge pairs read off the adjacency masks."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]


def write_dimacs(path, n, edges, comment):
    lines = ["c %s" % comment, "p edge %d %d" % (n, len(edges))]
    lines += ["e %d %d" % (u + 1, v + 1) for u, v in edges]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_edgelist(path, n, edges, comment):
    lines = ["# %s" % comment, str(n)]
    lines += ["%d %d" % e for e in edges]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_coloring(path, colors):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join("%d %d\n" % (v, c) for v, c in enumerate(colors)))


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


class Workload:
    """One workload; ``setup`` must be repeatable and leave ``ops`` set."""

    name = ""
    node_budget = None

    def setup(self, seed, workdir):
        raise NotImplementedError

    def warmup(self):
        """Untimed calls that load lazy imports and fill caches."""

    def prepare(self, op) -> bool:
        """Untimed; False skips the operation in this pass."""
        return True

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out, exc) -> str:
        """Classify one outcome: "ok", "unresolved" or "failed".

        A wrong answer raises CheckFailed instead.
        """
        raise NotImplementedError

    def end_pass(self):
        """Checks that need the whole pass."""

    def inputs_bytes(self) -> bytes:
        raise NotImplementedError


class _InMemory(Workload):
    def inputs_bytes(self):
        return "".join(
            "%d %s\n" % (g.n, ",".join(map(str, g.adj))) for _, g in self.ops
        ).encode()


def _connected_twin_free(g):
    return g.is_connected() and graph.is_twin_free(g)


class Gadget3(_InMemory):
    """Criterion-3 gadget equivalence on every connected twin-free graph of order 3..5."""

    name = "gadget3"
    node_budget = 10_000_000
    expected_inputs = 484

    def setup(self, seed, workdir):
        graphs = [
            g for n in (3, 4, 5) for g in solvers.enumerate_graphs(n, _connected_twin_free)
        ]
        require(len(graphs) == self.expected_inputs, "gadget3 has %d inputs", len(graphs))
        self.warm = graphs[:20]
        order = list(range(len(graphs)))
        random.Random(seed).shuffle(order)
        self.ops = [(i, graphs[i]) for i in order]
        self._truth = {}

    def warmup(self):
        for g in self.warm:
            self.run((None, g))

    def run(self, op):
        _, g = op
        base = solvers.decide_k_proper(g, 3, solvers.Budget(self.node_budget))
        inst = families.g_star(g)
        found = solvers.decide_k_rlid(inst.graph, 3, solvers.Budget(self.node_budget))
        lifted = lift_ok = projected = proj_ok = None
        if base is not None:
            lifted = families.lift_coloring_gstar(g, base, 3, inst)
            lift_ok = coloring.is_rlid(inst.graph, lifted)
        if found is not None:
            projected = families.project_coloring_gstar(inst, found)
            proj_ok = coloring.is_proper(g, projected)
        return base, inst, found, lifted, lift_ok, projected, proj_ok

    def _reference(self, i, g, gadget):
        if i not in self._truth:
            edges = edge_list(g)
            self._truth[i] = (edges, colorable(g.n, edges, 3), edge_list(gadget))
        return self._truth[i]

    def check(self, op, out, exc):
        if exc is not None:
            return "unresolved" if isinstance(exc, BudgetExceeded) else "failed"
        i, g = op
        base, inst, found, lifted, lift_ok, projected, proj_ok = out
        gadget = inst.graph
        edges, three, gedges = self._reference(i, g, gadget)
        require(gadget.n == 2 * g.n + 2 * len(edges), "gadget of order %d", gadget.n)
        require(len(gedges) == 3 * len(edges) + g.n, "gadget has %d edges", len(gedges))
        require((base is not None) == three, "decide_k_proper says %r, truth %r", base, three)
        require(
            (found is not None) == three,
            "gadget 3-rlid feasibility %r differs from 3-colorability %r", found is not None, three,
        )
        if base is not None:
            require(max(base.colors) <= 3 and is_proper(edges, base.colors), "bad 3-coloring")
            require(lift_ok is True, "lifted coloring rejected by is_rlid")
            check_coloring(gadget.n, gedges, lifted.colors, 3)
        if found is not None:
            check_coloring(gadget.n, gedges, found.colors, 3)
            require(proj_ok is True, "projected coloring rejected by is_proper")
            require(is_proper(edges, projected.colors), "projection is not proper")
        return "ok"


class Catalog6(_InMemory):
    """chi_rlid with default options on every connected labeled graph of order <= 6."""

    name = "catalog6"
    node_budget = 10_000_000

    def setup(self, seed, workdir):
        graphs = [
            g for n in range(1, 7) for g in solvers.enumerate_graphs(n, graph.Graph.is_connected)
        ]
        expected = sum(sum(h.values()) for h in CATALOG6_HISTOGRAM.values())
        require(len(graphs) == expected, "catalog6 has %d graphs", len(graphs))
        self.warm = graphs[:200]
        order = list(range(len(graphs)))
        random.Random(seed).shuffle(order)
        self.ops = [(i, graphs[i]) for i in order]
        self.histogram = collections.defaultdict(collections.Counter)

    def warmup(self):
        for g in self.warm:
            self.run((None, g))

    def run(self, op):
        return solvers.chi_exact(op[1], "rlid", solvers.Budget(self.node_budget))

    def check(self, op, res, exc):
        if exc is not None:
            return "failed"
        if res.status != "exact":
            require(res.status == "budget-exceeded", "unknown status %r", res.status)
            return "unresolved"
        g = op[1]
        w = res.witness
        require(coloring.verify_rlid(g, w).valid, "witness fails verify_rlid")
        require(
            len(set(w.colors)) == res.value and max(w.colors) == res.value,
            "value %r but witness uses colors %r", res.value, sorted(set(w.colors)),
        )
        self.histogram[g.n][res.value] += 1
        return "ok"

    def end_pass(self):
        seen = {n: dict(sorted(c.items())) for n, c in sorted(self.histogram.items())}
        require(seen == CATALOG6_HISTOGRAM, "chi histogram %r differs from the pinned one", seen)
        self.histogram.clear()


class _CliWorkload(Workload):
    def inputs_bytes(self):
        out = [repr(self.ops).encode()]
        for name in sorted(os.listdir(self.workdir)):
            with open(os.path.join(self.workdir, name), "rb") as fh:
                out.append(name.encode() + b"\n" + fh.read())
        return b"".join(out)

    def _read_json(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)


def _wheel(rim):
    edges = [(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)]
    return graph.build_graph(rim + 1, edges)


def random_split(rng, clique, stable, p):
    """Connected split graph: a clique plus a stable set wired with probability p."""
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    for s in range(clique, clique + stable):
        nbrs = [x for x in range(clique) if rng.random() < p] or [rng.randrange(clique)]
        edges += [(x, s) for x in nbrs]
    return clique + stable, edges


# the provenance of the lower bound known to miss on some split graphs
SPLIT_LOWER_BOUND = "split-log-omega-plus-2"


class CliSolve(_CliWorkload):
    """rlid bounds, solve and verify on named families, paths and split graphs."""

    name = "cli-solve"
    node_budget = 200_000

    def _instances(self, rng):
        # (name, graph or (n, edges), certified optimum or None)
        out = []
        for p in (2, 3, 4):
            out.append(("h_p-%d" % p, families.h_p(p).graph, p + 1))
        for p in (3, 4):
            out.append(("q1-%d" % p, families.q1(p).graph, p + 1))
            out.append(("q2-%d" % p, families.q2(p).graph, p + 1))
        for k in (3, 4, 5, 6):
            # pinned from the solver at the commit that defined the benchmark
            out.append(("power_path-%d" % k, families.power_path(k), 2 * k - 1))
        out.append(("prop1_graph-4", families.prop1_graph(4).graph, 4))
        # W5 has chromatic number 4, so its gadget needs exactly 4 colors
        out.append(("g_star-W5", families.g_star(_wheel(5)).graph, 4))
        for j in range(8):
            # one length, seeded labels: bounds on these paths cost about
            # the same as on the three other heaviest instances, so the
            # 90th percentile falls inside a block of equal-cost operations
            n = 100
            label = list(range(n))
            rng.shuffle(label)
            edges = [tuple(sorted((label[v], label[v + 1]))) for v in range(n - 1)]
            out.append(("path%d-%d" % (j, n), (n, sorted(edges)), 3))
        for j in range(4):
            out.append(("split%d" % j, random_split(rng, 5, 6, 0.5), None))
        return out

    def setup(self, seed, workdir):
        fresh_dir(workdir)
        self.workdir = workdir
        rng = random.Random(seed)
        self.inst = []
        for idx, (name, g, expected) in enumerate(self._instances(rng)):
            n, edges = (g.n, edge_list(g)) if isinstance(g, graph.Graph) else g
            path = os.path.join(workdir, "%02d-%s.col" % (idx, name))
            write_dimacs(path, n, edges, "%s seed=%d" % (name, seed))
            self.inst.append((name, path, n, edges, expected))
        order = list(range(len(self.inst)))
        rng.shuffle(order)
        # solve first, so the bounds check can use the solved value
        self.ops = [(kind, i) for i in order for kind in ("solve", "bounds", "verify")]
        self.out = os.path.join(workdir, "out.json")
        self.solved = {}
        self.cert = {}

    def _argv(self, kind, i):
        path = self.inst[i][1]
        budget = ["--node-budget", str(self.node_budget)]
        tail = ["--output", "json", "-i", path, "--out", self.out]
        if kind == "bounds":
            return ["bounds"] + budget + tail
        if kind == "solve":
            return ["solve", "--parameter", "rlid"] + budget + tail
        return ["verify", "--mode", "rlid", "--certificate", self.cert[i]] + tail

    def warmup(self):
        i = next(j for j, x in enumerate(self.inst) if x[0] == "q2-3")
        for kind in ("solve", "bounds", "verify"):
            if self.prepare((kind, i)):
                self.check((kind, i), self.run((kind, i)), None)

    def prepare(self, op):
        kind, i = op
        if os.path.exists(self.out):
            os.remove(self.out)
        if kind == "solve":
            self.solved.pop(i, None)
            self.cert.pop(i, None)
        return kind != "verify" or i in self.cert

    def run(self, op):
        return cli.main(self._argv(*op))

    def check(self, op, rc, exc):
        kind, i = op
        name, _, n, edges, expected = self.inst[i]
        if exc is not None or rc not in (0, 1, 3):
            return "failed"
        if kind == "verify":
            data = self._read_json(self.out)
            require(rc == 0 and data["valid"] and not data["violations"],
                    "%s: rlid verify rejects a witness the reference accepts", name)
            return "ok"
        if rc != 0 and not (kind == "solve" and rc == 3):
            return "failed"
        data = self._read_json(self.out)
        if kind == "bounds":
            lo, hi = data["best_lower"], data["best_upper"]
            require(lo <= hi, "%s: bounds %d..%d are inverted", name, lo, hi)
            value = expected if expected is not None else self.solved.get(i)
            if value is not None and not lo <= value <= hi:
                # The split lower bound exceeds the true value on some
                # twin-free connected split graphs at the defining commit.
                # Only that miss is a failed operation; any other is a
                # wrong answer.
                above = {prov for v, prov in data["bounds"]["lower"] if v > value}
                require(
                    name.startswith("split") and value <= hi
                    and above == {SPLIT_LOWER_BOUND},
                    "%s: bounds %d..%d exclude the value %d (lower bounds above it: %s)",
                    name, lo, hi, value, sorted(above),
                )
                print("%s: %s gives %d, above the verified value %d"
                      % (name, SPLIT_LOWER_BOUND, lo, value), file=sys.stderr)
                return "failed"
            return "ok"
        if rc == 3:
            require(data["status"] == "budget-exceeded" and data["value"] is None,
                    "%s: exit 3 with status %r", name, data["status"])
            return "unresolved"
        value = data["value"]
        require(data["status"] == "exact", "%s: exit 0 with status %r", name, data["status"])
        if expected is not None:
            require(value == expected, "%s: solved %r, certified %d", name, value, expected)
        colors = [c for _, c in sorted(data["witness"])]
        check_coloring(n, edges, colors, value)
        cert = os.path.join(self.workdir, "witness-%02d.txt" % i)
        write_coloring(cert, colors)
        self.solved[i] = value
        self.cert[i] = cert
        return "ok"


class CliVerify(_CliWorkload):
    """rlid verify on large sparse graphs with a valid and an invalid certificate each."""

    name = "cli-verify"
    sizes = (1000,) * 10 + (2000,) * 6 + (5000,) * 2 + (10000, 20000)

    def setup(self, seed, workdir):
        fresh_dir(workdir)
        self.workdir = workdir
        rng = random.Random(seed)
        self.graphs = []
        for j, n in enumerate(self.sizes):
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            seen = set(edges)
            while len(edges) < 2 * n:
                u, v = sorted(rng.sample(range(n), 2))
                if (u, v) not in seen:
                    seen.add((u, v))
                    edges.append((u, v))
            rng.shuffle(edges)
            comment = "sparse n=%d seed=%d" % (n, seed)
            if j % 2 == 0:
                path = os.path.join(workdir, "g%02d.col" % j)
                write_dimacs(path, n, edges, comment)
            else:
                path = os.path.join(workdir, "g%02d.txt" % j)
                write_edgelist(path, n, edges, comment)
            certs = {
                "rainbow": list(range(1, n + 1)),
                "random3": [rng.randint(1, 3) for _ in range(n)],
            }
            for kind, colors in certs.items():
                write_coloring(os.path.join(workdir, "g%02d.%s" % (j, kind)), colors)
            self.graphs.append((path, n, edges, certs))
        self.ops = [(kind, j) for j in range(len(self.sizes)) for kind in ("rainbow", "random3")]
        rng.shuffle(self.ops)
        self.out = os.path.join(workdir, "out.json")
        self._expected = {}

    def warmup(self):
        # the invalid certificate on the largest graph grows the heap to
        # its working size, which would otherwise slow the first timed pass
        largest = max(range(len(self.sizes)), key=self.sizes.__getitem__)
        self.prepare(("random3", largest))
        self.run(("random3", largest))

    def prepare(self, op):
        if os.path.exists(self.out):
            os.remove(self.out)
        return True

    def run(self, op):
        kind, j = op
        cert = os.path.join(self.workdir, "g%02d.%s" % (j, kind))
        return cli.main(
            ["verify", "--mode", "rlid", "--output", "json",
             "-i", self.graphs[j][0], "--certificate", cert, "--out", self.out]
        )

    def check(self, op, rc, exc):
        if exc is not None or rc not in (0, 1):
            return "failed"
        kind, j = op
        path, n, edges, certs = self.graphs[j]
        if op not in self._expected:
            self._expected[op] = rlid_violations(n, edges, certs[kind])
        count = self._expected[op]
        require(rc == (1 if count else 0), "%s %s: exit %d with %d violations", path, kind, rc, count)
        data = self._read_json(self.out)
        require(data["valid"] == (count == 0), "%s %s: valid=%r", path, kind, data["valid"])
        require(len(data["violations"]) == count, "%s %s: %d violations reported, %d exist",
                path, kind, len(data["violations"]), count)
        return "ok"


WORKLOADS = {w.name: w for w in (Gadget3, Catalog6, CliSolve, CliVerify)}
