"""The four benchmark workloads.

A workload writes its seeded input files (``setup``), names the wgraph
commands that make up one operation (``commands``), names the files those
commands write (``written``), and checks one operation's reports and
written files against the oracles (``problems``, a list that is empty
when the operation is correct).  Oracle results are computed on first
use and kept, so a run pays for them once.
"""

from __future__ import annotations

import os

import numpy as np

import inputs
import oracles
from oracles import read_report, report_spectrum, spectra_mismatch

EPS = np.finfo(float).eps


def _expect(fields: dict, key: str, want, problems: list, where: str):
    if fields.get(key) != str(want):
        problems.append(f"{where}: {key} is {fields.get(key)!r}, expected {str(want)!r}")


class Workload:
    """Inputs, commands and checks of one workload for one seed."""

    name = ""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self._oracle = None

    def rng(self):
        return np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def file(self, name: str) -> str:
        return os.path.join(self.work, name)

    def written(self) -> list:
        return []

    def problems(self, reports) -> list:
        """``check``, with unreadable output reported as a problem."""
        try:
            return self.check(reports)
        except (ValueError, KeyError, IndexError, OSError) as e:
            return [f"unreadable output: {type(e).__name__}: {e}"]

    def oracle(self):
        if self._oracle is None:
            self._oracle = self.compute_oracle()
        return self._oracle


class CoverRoute(Workload):
    """``cover lift --out`` then ``cover include`` on a 30-vertex base and 8 sheets."""

    name = "cover-route"

    def setup(self):
        self.base, self.degree, self.perms = inputs.cover_route_inputs(self.rng())
        inputs.write_wg(self.file("base.wg"), self.base)
        inputs.write_volt(self.file("base.volt"), self.degree, self.perms)

    def commands(self):
        cov = self.file("cover.cov")
        return [
            ["cover", "lift", "--graph", self.file("base.wg"), "--volt", self.file("base.volt"),
             "--out", cov],
            ["cover", "include", "--map", cov],
        ]

    def written(self):
        return [self.file("cover.cov")]

    def compute_oracle(self):
        cover, vertex_map, arc_map = inputs.lift(self.base, self.degree, self.perms)
        b, c = self.base.matrix(), cover.matrix()
        return dict(cover=cover, vertex_map=vertex_map, arc_map=arc_map, b=b, c=c,
                    base_eigs=oracles.eigenvalues(b), cover_eigs=oracles.eigenvalues(c))

    def check(self, reports):
        o, problems = self.oracle(), []
        lift, _ = read_report(reports[0])
        n_base, n_cover = len(self.base.vertices), len(o["cover"].vertices)
        for key, want in (("BASE ORDER", n_base), ("SHEETS", self.degree), ("COVER ORDER", n_cover),
                          ("COVER ARCS", len(o["cover"].arcs)), ("VERIFIED", "ok")):
            _expect(lift, key, want, problems, "lift")
        cover, base, vertex_map, arc_map = oracles.read_cov(self.file("cover.cov"))
        if vertex_map != o["vertex_map"] or arc_map != o["arc_map"]:
            problems.append("lift: written vertex or arc map differs from the voltage lift")
        for got, want, what in ((cover.matrix(), o["c"], "cover"), (base.matrix(), o["b"], "base")):
            if got.shape != want.shape or not np.allclose(got, want, rtol=0, atol=1e-14):
                problems.append(f"lift: written {what} graph differs from the voltage lift")

        inc, lines = read_report(reports[1])
        _expect(inc, "VIOLATIONS", 0, problems, "include")
        for key, eigs, m in (("BASE SPECTRUM", o["base_eigs"], o["b"]),
                             ("COVER SPECTRUM", o["cover_eigs"], o["c"])):
            tol = 1e-8 * max(1.0, inputs.schur_bound(m))
            bad = spectra_mismatch(report_spectrum(inc.get(key, "")), eigs, tol)
            if bad:
                problems.append(f"include: {key}: {bad}")
        gap = np.abs(o["base_eigs"][:, None] - o["cover_eigs"][None, :]).min(axis=1).max()
        if gap > 1e-8:
            problems.append(f"oracle: a base eigenvalue is {gap:.3g} from the cover spectrum")
        steps = [line for line in lines if line.startswith("STEP ")]
        if len(steps) != n_base or not all(line.endswith(" ok") for line in steps):
            ok = sum(line.endswith(" ok") for line in steps)
            problems.append(f"include: {ok} ok STEP lines, expected {n_base}")
        _expect(inc, "INCLUDED", "ok", problems, "include")
        return problems


class OrbitalSchreier(Workload):
    """``orbital`` on Grigorchuk's group (level 6) and on the binary odometer (level 5)."""

    name = "orbital-schreier"

    def setup(self):
        rng = self.rng()
        self.roots = {}
        for name, transitions, terms, level in inputs.ORBITAL_CASES:
            inputs.write_act(self.file(f"{name}.act"), ("0", "1"), transitions)
            inputs.write_elt(self.file(f"{name}.elt"), terms)
            self.roots[name] = inputs.orbital_roots(rng, level)

    def commands(self):
        return [
            ["orbital", "--action", self.file(f"{name}.act"), "--element", self.file(f"{name}.elt"),
             "--x", self.roots[name][0], "--y", self.roots[name][1], "--level", str(level)]
            for name, _, _, level in inputs.ORBITAL_CASES
        ]

    def compute_oracle(self):
        out = {}
        for name, transitions, terms, level in inputs.ORBITAL_CASES:
            m = oracles.schreier_matrix(transitions, terms, level)
            out[name] = (oracles.eigenvalues(m), 1e-10 * max(1.0, inputs.schur_bound(m)))
        eigs, tol = out["odometer"]
        bad = spectra_mismatch(eigs, oracles.cycle_spectrum(len(eigs)), tol)
        if bad:
            raise AssertionError(f"Schreier oracle disagrees with the odometer closed form: {bad}")
        return out

    def check(self, reports):
        problems = []
        for (name, _, _, level), text in zip(inputs.ORBITAL_CASES, reports):
            eigs, tol = self.oracle()[name]
            rep, _ = read_report(text)
            x, y = self.roots[name]
            _expect(rep, "ORBIT X", f"{x} size={2**level}", problems, name)
            _expect(rep, "ORBIT Y", f"{y} size={2**level}", problems, name)
            for key in ("SPECTRUM X", "SPECTRUM Y"):
                bad = spectra_mismatch(report_spectrum(rep.get(key, "")), eigs, tol)
                if bad:
                    problems.append(f"{name}: {key}: {bad}")
            if rep.get("HAUSDORFF") not in ("0.0", "-0.0"):
                problems.append(f"{name}: HAUSDORFF is {rep.get('HAUSDORFF')!r}, expected 0")
            _expect(rep, "LOCAL-ISO SATURATED", "yes", problems, name)
            _expect(rep, "CROSS-CHECKS", 2**level, problems, name)
            _expect(rep, "CROSS-MISSES", 0, problems, name)
            _expect(rep, "TRANSFER", "ok", problems, name)
        return problems


class SpectralDense(Workload):
    """Three ``spectrum --check-lambda`` runs: 1024 Hermitian, 768 non-Hermitian, 384 dense."""

    name = "spectral-dense"
    TOL = 1e-9  # the spectrum subcommand's default membership tolerance

    def setup(self):
        rng = self.rng()
        herm, c = inputs.hermitian_member(rng)
        nonherm, lam = inputs.nonhermitian_graph(rng)
        mat, d = inputs.nonnormal_matrix(rng)
        inputs.write_wg(self.file("hermitian.wg"), herm)
        inputs.write_wg(self.file("nonhermitian.wg"), nonherm)
        inputs.write_mat(self.file("dense.mat"), mat)
        self.cases = [("hermitian", herm, c, "--graph", "hermitian.wg"),
                      ("nonhermitian", nonherm, lam, "--graph", "nonhermitian.wg"),
                      ("dense", mat, d, "--matrix", "dense.mat")]

    def commands(self):
        return [["spectrum", flag, self.file(fname), f"--check-lambda={inputs.fmt_complex(lam)}"]
                for _, _, lam, flag, fname in self.cases]

    def compute_oracle(self):
        out = []
        for name, source, lam, _, _ in self.cases:
            m = source.matrix() if isinstance(source, inputs.Graph) else source
            eigs = oracles.eigenvalues(m)
            if np.array_equal(m, m.conj().T):
                sigma = float(np.abs(eigs - lam).min())  # M - lam is normal: sigma_min = min |mu - lam|
            else:
                sigma = oracles.sigma_min(m, lam)
            out.append((name, eigs, inputs.schur_bound(m), sigma))
        return out

    def check(self, reports):
        problems = []
        for (name, eigs, bound, sigma), text in zip(self.oracle(), reports):
            rep, _ = read_report(text)
            n = len(eigs)
            _expect(rep, "ORDER", n, problems, name)
            bad = spectra_mismatch(report_spectrum(rep.get("SPECTRUM", "")), eigs, 1e-8 * max(1.0, bound))
            if bad:
                problems.append(f"{name}: SPECTRUM: {bad}")
            radius = float(rep.get("R", "nan"))
            if not abs(radius - 2 * bound) <= 1e-12 * radius:
                problems.append(f"{name}: R is {radius}, expected twice the Schur bound {bound}")
            threshold = radius * np.sqrt(self.TOL)
            if 1e-3 * threshold < sigma < 1e3 * threshold:
                problems.append(f"{name}: sigma_min {sigma:.3g} lies in the boundary band of {threshold:.3g}")
            _expect(rep, "MEMBER", "yes" if sigma <= threshold else "no", problems, name)
            want = sigma**2 / radius**2
            for key in ("DIST LEFT", "DIST RIGHT"):
                got = float(rep.get(key, "nan"))
                if not abs(got - want) <= 1e-6 * want + 64 * n * EPS:
                    problems.append(f"{name}: {key} is {got:.6g}, expected sigma_min^2/R^2 = {want:.6g}")
        return problems


class DeficiencyWrite(Workload):
    """``graph-op deficiency --side left --out`` on 1500 vertices and 19,500 arcs."""

    name = "deficiency-write"

    def setup(self):
        self.graph, self.lam, self.radius = inputs.deficiency_graph_input(self.rng())
        inputs.write_wg(self.file("graph.wg"), self.graph)

    def commands(self):
        return [["graph-op", "deficiency", "--graph", self.file("graph.wg"),
                 f"--lambda={inputs.fmt_complex(self.lam)}", f"--R={self.radius!r}", "--side", "left",
                 "--out", self.file("deficiency.wg")]]

    def written(self):
        return [self.file("deficiency.wg")]

    def compute_oracle(self):
        pos = self.graph.index()
        n = len(pos)
        outdeg = np.bincount([pos[s] for s, _, _ in self.graph.arcs], minlength=n) + 1
        indeg = np.bincount([pos[t] for _, t, _ in self.graph.arcs], minlength=n) + 1
        a = self.graph.matrix() - self.lam * np.eye(n)
        expected = np.eye(n) - (a @ a.conj().T) / self.radius**2
        return dict(arcs=int(outdeg @ indeg) + n, expected=expected)

    def check(self, reports):
        o, problems = self.oracle(), []
        rep, _ = read_report(reports[0])
        for key, want in (("OPERATION", "deficiency"), ("INPUT ORDER", len(self.graph.vertices)),
                          ("SIDE", "left"), ("RESULT ARCS", o["arcs"]), ("SELF-CHECK", "ok")):
            _expect(rep, key, want, problems, "deficiency")
        out = oracles.read_wg(self.file("deficiency.wg"))
        if len(out.arcs) != o["arcs"]:
            problems.append(f"written graph has {len(out.arcs)} arcs, expected {o['arcs']}")
        p = np.array(out.pairing)
        if not np.array_equal(p[p], np.arange(len(p))):
            problems.append("written pairing is not an involution")
        if sorted(out.vertices) != sorted(self.graph.vertices):
            problems.append("written graph has another vertex set")
        else:
            err = np.abs(out.matrix() - o["expected"]).max() / np.abs(o["expected"]).max()
            if not err <= 1e-12:
                problems.append(f"written graph is {err:.3g} (relative) from I - (H-lam)(H-lam)*/R^2")
        return problems


WORKLOADS = {w.name: w for w in (CoverRoute, OrbitalSchreier, SpectralDense, DeficiencyWrite)}
