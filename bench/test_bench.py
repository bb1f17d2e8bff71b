"""Tests of the benchmark's writers, oracles, checks and tracer.

Run with:  PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import inputs
import oracles
import workloads
from wgraph import (
    GroupAction,
    GroupAlgebraElement,
    make_graph,
    materialize,
    orbital_graph,
    read_action,
    read_covering,
    read_element,
    read_graph,
    read_matrix,
    read_voltages,
    verify_covering,
    voltage_cover,
)
from wgraph.cli import main as wgraph_main

HERE = os.path.dirname(os.path.abspath(__file__))


def _graph_equal(ours: inputs.Graph, theirs):
    """Same operator, arc for arc, up to wgraph's sorting of the vertex list."""
    assert list(theirs.vertices) == sorted(ours.vertices)
    assert [(a.source, a.target, a.weight) for a in theirs.arcs] == ours.arcs
    assert list(theirs.pairing) == ours.pairing


@pytest.fixture
def cover_case():
    return inputs.cover_route_inputs(np.random.default_rng(7))


def test_graph_and_matrix_writers_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    g, _, _ = inputs.deficiency_graph_input(rng)
    inputs.write_wg(tmp_path / "g.wg", g)
    _graph_equal(g, read_graph(tmp_path / "g.wg"))
    m, _ = inputs.nonnormal_matrix(rng)
    m = m + 1e-3 * rng.standard_normal(m.shape)  # non-integer parts must survive too
    inputs.write_mat(tmp_path / "m.mat", m)
    assert np.array_equal(read_matrix(tmp_path / "m.mat"), m)


def test_cover_and_voltage_writers_round_trip(tmp_path, cover_case):
    base, degree, perms = cover_case
    inputs.write_volt(tmp_path / "b.volt", degree, perms)
    assert read_voltages(tmp_path / "b.volt") == (degree, tuple(map(tuple, perms)))
    cover, vertex_map, arc_map = inputs.lift(base, degree, perms)
    inputs.write_cov(tmp_path / "c.cov", cover, base, vertex_map, arc_map)
    covering = read_covering(tmp_path / "c.cov")
    _graph_equal(cover, covering.cover)
    _graph_equal(base, covering.base)
    assert covering.vertex_map == vertex_map and list(covering.arc_map) == arc_map
    assert verify_covering(covering) == []


def test_action_and_element_writers_round_trip(tmp_path):
    for name, transitions, terms, level in inputs.ORBITAL_CASES:
        inputs.write_act(tmp_path / f"{name}.act", ("0", "1"), transitions)
        inputs.write_elt(tmp_path / f"{name}.elt", terms)
        spec = read_action(tmp_path / f"{name}.act")
        assert spec.transitions == transitions
        action = spec.realize(level)
        for state, perm in oracles.transducer_perms(transitions, level).items():
            assert action.perms[state] == tuple(perm)
        assert read_element(tmp_path / f"{name}.elt").terms == {w: complex(c) for w, c in terms.items()}


def test_cover_oracle_is_the_voltage_lift(cover_case):
    base, degree, perms = cover_case
    cover, vertex_map, _ = inputs.lift(base, degree, perms)
    c, b = cover.matrix(), base.matrix()
    # the pullback along the vertex map intertwines the two operators
    cpos, bpos = cover.index(), base.index()
    p = np.zeros((len(cpos), len(bpos)))
    for v, w in vertex_map.items():
        p[cpos[v], bpos[w]] = 1.0
    assert np.abs(c @ p - p @ b).max() <= 1e-14
    g = make_graph(base.vertices, base.arcs, base.pairing)
    assert np.array_equal(materialize(voltage_cover(g, degree, perms)[0]), c)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_schreier_oracle_matches_the_odometer_closed_form(level):
    transitions, terms = inputs.ODOMETER, {("a",): 1.0, ("a'",): 1.0}
    eigs = oracles.eigenvalues(oracles.schreier_matrix(transitions, terms, level))
    assert oracles.spectra_mismatch(eigs, oracles.cycle_spectrum(2**level), 1e-12) is None


def test_schreier_oracle_matches_grigorchuk_orbital_graph():
    name, transitions, terms, level = inputs.ORBITAL_CASES[0]
    m = oracles.schreier_matrix(transitions, terms, level)
    assert np.array_equal(m, m.T) and np.all(m.sum(axis=0) == 4)  # four involutions
    action = GroupAction.from_mealy(transitions, ["0", "1"], level)
    og = orbital_graph(action, "0" * level, GroupAlgebraElement(terms))
    assert np.array_equal(materialize(og.graph), m)


def test_sigma_min_oracle():
    d = np.array([3.0, -1.0, 2.0 + 1j])
    assert oracles.sigma_min(np.diag(d), 2.0) == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    m, c = inputs.nonnormal_matrix(rng)
    assert oracles.sigma_min(m, c) <= 1e-10 * np.abs(m).max() * len(m)
    g, lam = inputs.nonhermitian_graph(rng)
    assert oracles.sigma_min(g.matrix(), lam) >= 0.25 * inputs.schur_bound(g.matrix())


def test_inputs_fix_the_amount_of_work():
    for seed in (0, 1):
        g, _, _ = inputs.deficiency_graph_input(np.random.default_rng(seed))
        pos = g.index()
        out = np.bincount([pos[s] for s, _, _ in g.arcs], minlength=len(pos))
        inn = np.bincount([pos[t] for _, t, _ in g.arcs], minlength=len(pos))
        assert len(g.arcs) == 19500 and set(out) == {13} and set(inn) == {13}
        h, c = inputs.hermitian_member(np.random.default_rng(seed))
        left = set(h.vertices[:500])
        assert len(h.arcs) == 5024
        assert all((s in left) != (t in left) or s == t for s, t, _ in h.arcs)
        assert all(w == c for s, t, w in h.arcs if s == t)


def _run_in_process(args) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wgraph_main(args)
    return code, out.getvalue()


def test_cover_route_check_accepts_wgraph_and_rejects_tampering(tmp_path):
    w = workloads.CoverRoute(5, str(tmp_path))
    w.setup()
    runs = [_run_in_process(args) for args in w.commands()]
    assert [code for code, _ in runs] == [0, 0]
    reports = [text for _, text in runs]
    assert w.problems(reports) == []
    include = reports[1]
    step = next(line for line in include.splitlines() if line.startswith("STEP 3:"))
    first_base = include.split("BASE SPECTRUM: ")[1].split()[0]
    for tampered in (
        include.replace("INCLUDED: ok", "INCLUDED: FAILED"),
        include.replace(step + "\n", ""),
        include.replace("BASE SPECTRUM: " + first_base, "BASE SPECTRUM: " + first_base + " 0.0"),
        include.replace("BASE SPECTRUM: " + first_base, "BASE SPECTRUM: " + first_base + "1"),
        include.replace("VIOLATIONS: 0", "VIOLATIONS: 1"),
    ):
        assert w.problems([reports[0], tampered]) != []


def test_tracer_records_every_layer_boundary(tmp_path):
    g = tmp_path / "g.wg"
    inputs.write_wg(g, inputs.Graph(["x", "y"], [("x", "y", 1.0), ("y", "x", 2.0)], [1, 0]))
    trace = tmp_path / "t.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "tracer.py"), str(trace), "spectrum", "--graph", str(g),
         "--check-lambda", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    direct = _run_in_process(["spectrum", "--graph", str(g), "--check-lambda", "1"])[1]
    assert proc.stdout == direct  # the report is untouched by tracing
    record = json.loads(trace.read_text())
    spans = record["spans"]
    for key in ("fileio.read_graph", "core.make_graph", "operator.materialize", "spectra.spectrum",
                "spectra.membership_by_deficiency"):
        assert spans[key][0] >= 1, key
    # a non-Hermitian spectrum, then one eigvalsh per membership side
    assert spans["linalg.eigvals"][0] == 1 and spans["linalg.eigvalsh"][0] == 2
    assert record["counts"]["linalg.n3"] == 3 * 2**3
    assert record["counts"]["fileio.bytes_read"] == g.stat().st_size
    assert 0 <= record["cli_child_s"] <= record["main_s"]
    for calls, incl, self_s in spans.values():
        assert 0 <= self_s <= incl + 1e-9
