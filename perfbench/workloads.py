"""The benchmark's workloads: what one request runs and how its output is checked.

A workload hands out rounds of requests.  Every round of a workload makes
the same calls in the same numbers, so per-request counts do not depend on
how many rounds a run completes.  execute() is the timed part and goes
through the package's module attributes (so traced runs see the wrappers);
verify() is untimed and compares the output with the independent checker.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import checker
import inputs


class ToricWorkload:
    """Shared machinery of toric-sweep and toric-fresh."""

    def __init__(self, seed, mods, root):
        self.mods = mods
        self.source = inputs.ScrambleSource(inputs.new_rng(seed, self.name))
        self.geometry = (None, None)    # (scramble, its checker geometry): the last one
        self.output_bytes = 0

    def execute(self, request):
        scramble, direction = request
        polytope, toric, circle_action, seidel = (
            self.mods.polytope, self.mods.toric, self.mods.circle_action, self.mods.seidel)
        translation, reflexive = polytope.monotone_normalize(
            polytope.polytope_from_json(scramble.doc))
        spec = toric.SubcircleSpec(direction, reflexive)
        action = toric.toric_action(spec)
        checks = circle_action.run_all_checks(action)
        if all(c.passed for c in checks):
            report = circle_action.gromov_width(action)
            rows = toric.edge_cross_check(spec)
            structure = seidel.seidel_structure(action)
            return translation, reflexive, checks, (report, rows, structure,
                                                    seidel.degree_check(structure))
        return translation, reflexive, checks, toric.semifree_witness(spec)

    def verify(self, request, result):
        scramble, direction = request
        translation, reflexive, checks, rest = result
        out = checker.ToricOutput(
            translation=translation,
            reflexive=[(f.normal, f.offset) for f in reflexive.facets],
            checks=[(c.check, c.passed) for c in checks])
        if isinstance(rest, tuple):
            report, rows, structure, degree_ok = rest
            out.width, out.H_max, out.s = report.width, report.H_max, report.s
            out.second_level = report.second_level_components
            out.edge_rows = [(r.edge.tail.position, r.edge.head.position, r.c1, r.area,
                              r.lattice_length) for r in rows]
            out.seidel = [(e.index, e.status.value) for e in structure.entries]
            out.seidel_n, out.seidel_s, out.degree_ok = structure.n, structure.s, degree_ok
        else:
            out.witness = rest
        if self.geometry[0] is not scramble:
            self.geometry = (scramble, checker.reflexive_geometry(scramble.normals))
        return checker.check_toric(out, checker.expect_toric(self.geometry[1], direction),
                                   scramble.normals, scramble.translation, direction)

    def close(self):
        pass


class ToricSweep(ToricWorkload):
    """Each round: one fresh scramble per sweep seed, queried with its whole box."""

    name = "toric-sweep"

    def next_round(self):
        requests = []
        for seed_name, radius in inputs.SWEEP:
            scramble = self.source.scramble(seed_name)
            dim = len(inputs.SEEDS[seed_name][0])
            requests += [(scramble, scramble.direction(xi))
                         for xi in inputs.box_directions(dim, radius)]
        return requests


class ToricFresh(ToricWorkload):
    """Each round: one new scramble per fresh seed, with its accepted direction."""

    name = "toric-fresh"

    def next_round(self):
        requests = []
        for seed_name, xi in inputs.FRESH:
            scramble = self.source.scramble(seed_name)
            requests.append((scramble, scramble.direction(xi)))
        return requests


class ProductCli:
    """In-process gromov_width.cli.main calls over products of Grassmannians."""

    name = "product-cli"

    def __init__(self, seed, mods, root: Path):
        self.mods = mods
        self.rng = inputs.new_rng(seed, self.name)
        self.workdir = tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=root)
        self.paths = inputs.write_action_files(Path(self.workdir.name), self.rng)
        self.output_bytes = 0

    def next_round(self):
        return inputs.cli_round(self.rng, self.paths)

    def execute(self, request):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.mods.cli.main(request.argv)
        return code, buf.getvalue()

    def verify(self, request, result):
        code, stdout = result
        self.output_bytes += len(stdout.encode())
        return checker.check_cli(request.command, request.fmt, request.factors,
                                 request.planted, code, stdout)

    def close(self):
        self.workdir.cleanup()


WORKLOADS = {w.name: w for w in (ToricSweep, ToricFresh, ProductCli)}
