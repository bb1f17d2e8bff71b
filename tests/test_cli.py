import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from helpers import ODOMETER_TRANSITIONS, circulant_spectrum, random_graph

from wgraph import (
    ActionSpec,
    CoveringMap,
    GroupAlgebraElement,
    add_scalar,
    adjoint,
    compose,
    deficiency_graph,
    make_graph,
    materialize,
    norm_bound,
    parse_complex,
    read_covering,
    read_graph,
    scale,
    voltage_cover,
    write_action,
    write_covering,
    write_element,
    write_graph,
    write_matrix,
    write_voltages,
)
import wgraph.cli
import wgraph.covering
import wgraph.orbital
import wgraph.spectra
from wgraph.cli import main


def two_cycle_graph():
    return make_graph(["x", "y"], [("x", "y", 1.0), ("y", "x", 1.0)], [1, 0])


def eight_cycle_graph():
    verts = [f"v{i}" for i in range(8)]
    fwd = [(verts[i], verts[(i + 1) % 8], 1.0) for i in range(8)]
    bwd = [(verts[(i + 1) % 8], verts[i], 1.0) for i in range(8)]
    pairing = [8 + i for i in range(8)] + list(range(8))
    return make_graph(verts, fwd + bwd, pairing)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("clifiles")
    paths = {k: str(d / k) for k in (
        "swap.wg", "cycle8.wg", "nil.mat", "base2.wg", "volt2.volt",
        "good.cov", "bad.cov", "odo.act", "adj.elt",
    )}
    write_graph(two_cycle_graph(), paths["swap.wg"])
    write_graph(eight_cycle_graph(), paths["cycle8.wg"])
    write_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), paths["nil.mat"])
    base = two_cycle_graph()
    write_graph(base, paths["base2.wg"])
    write_voltages(2, [(1, 0), (1, 0)], paths["volt2.volt"])
    cover, covering = voltage_cover(base, 2, [(1, 0), (1, 0)])
    write_covering(covering, paths["good.cov"])
    arcs = [(a.source, a.target, a.weight) for a in cover.arcs]
    arcs[0] = (arcs[0][0], arcs[0][1], 1.5)
    broken_cover = make_graph(cover.vertices, arcs, list(cover.pairing))
    write_covering(
        CoveringMap(broken_cover, covering.base, covering.vertex_map, covering.arc_map),
        paths["bad.cov"],
    )
    write_action(
        ActionSpec("mealy", transitions=ODOMETER_TRANSITIONS, alphabet=("0", "1")),
        paths["odo.act"],
    )
    write_element(GroupAlgebraElement({("a",): 1.0, ("a'",): 1.0}), paths["adj.elt"])
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_op_scale(files, capsys, tmp_path):
    out_path = str(tmp_path / "scaled.wg")
    code, out, _ = run(capsys, [
        "graph-op", "scale", "--graph", files["swap.wg"], "--factor", "2+1i",
        "--out", out_path,
    ])
    assert code == 0
    assert "OPERATION: scale" in out
    assert "SELF-CHECK: ok" in out
    assert read_graph(out_path).arcs[0].weight == 2 + 1j


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("op, flags", [("scale", ["--factor", "1e308"]), ("compose", ["--other", "huge.wg"])])
def test_graph_op_refuses_a_result_with_a_non_finite_weight(op, flags, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_graph(make_graph(["x", "y"], [("x", "y", 1e308 + 1e308j), ("y", "x", 1e308)], [1, 0]), "huge.wg")
    code, out, err = run(capsys, ["graph-op", op, "--graph", "huge.wg", *flags, "--out", "s.wg"])
    assert (code, out, err) == (2, "", f"ERROR: graph-op {op}: the result has a non-finite weight\n")
    assert not (tmp_path / "s.wg").exists()


def test_graph_op_refusing_an_overflow_leaves_an_existing_output_as_it_was(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_graph(make_graph(["x", "y"], [("x", "y", 1e308 + 1e308j), ("y", "x", 1e308)], [1, 0]), "huge.wg")
    write_graph(two_cycle_graph(), "s.wg")  # the output of an earlier run
    before = (tmp_path / "s.wg").read_bytes()
    code, out, err = run(capsys, ["graph-op", "scale", "--graph", "huge.wg", "--factor", "1e308", "--out", "s.wg"])
    assert (code, out, err) == (2, "", "ERROR: graph-op scale: the result has a non-finite weight\n")
    assert (tmp_path / "s.wg").read_bytes() == before


@pytest.mark.parametrize("argv", [
    ["graph-op", "adjoint", "--graph", "missing.wg"],
    ["spectrum", "--graph", "missing.wg"],
    ["cover", "lift", "--graph", "missing.wg", "--volt", "missing.volt"],
], ids=["graph-op", "spectrum", "cover lift"])
def test_an_empty_out_is_refused_before_any_input_is_read(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv + ["--out", ""])
    assert (code, out, err) == (2, "", "ERROR: --out needs a file path, got an empty one\n")
    assert list(tmp_path.iterdir()) == []


def test_an_empty_graph_path_is_read_as_a_path(capsys):
    code, out, err = run(capsys, ["spectrum", "--graph", ""])
    assert (code, out, err) == (2, "", "ERROR: [Errno 2] No such file or directory: ''\n")


OUT_COMMANDS = {
    "graph-op": ["graph-op", "adjoint", "--graph", "cycle8.wg"],
    "spectrum": ["spectrum", "--matrix", "nil.mat"],
    "cover lift": ["cover", "lift", "--graph", "base2.wg", "--volt", "volt2.volt"],
}


@pytest.mark.parametrize("target", ["/dev/null", "fifo"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_an_out_that_is_no_regular_file_is_written_in_order(command, target, files, capsys, tmp_path):
    argv = [files.get(a, a) for a in OUT_COMMANDS[command]]
    fresh = tmp_path / "fresh"
    assert run(capsys, argv + ["--out", str(fresh)])[0] == 0
    if target == "/dev/null":
        code, out, err = run(capsys, argv + ["--out", target])
        assert (code, err) == (0, "") and out.endswith("WROTE: /dev/null\n")
        return
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()))
    reader.start()
    try:
        code, out, err = run(capsys, argv + ["--out", str(fifo)])
    finally:
        try:  # ends a reader still waiting for a writer; one that has read to the end is gone
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass
        reader.join()
    assert (code, err) == (0, "") and out.endswith(f"WROTE: {fifo}\n")
    assert read == [fresh.read_bytes()]


@pytest.mark.parametrize("command", ["graph-op", "spectrum"])
def test_an_out_that_names_the_command_s_own_input_gets_the_bytes_of_a_fresh_path(command, capsys, tmp_path):
    if command == "graph-op":  # the input is longer than the output, which conjugates its weights
        own = tmp_path / "g.wg"
        write_graph(random_graph(np.random.default_rng(137), n=12), str(own))
        own.write_bytes(own.read_bytes() + b"# a comment the output does not keep\n" * 20)
        argv = ["graph-op", "adjoint", "--graph", str(own)]
    else:  # the input is shorter than the output, which writes every entry as a repr float
        own = tmp_path / "m.mat"
        own.write_text("matrix 1\ndim 3\n0 1 2i\n1 0 0\n-2i 0 1\n")
        argv = ["spectrum", "--matrix", str(own)]
    fresh = tmp_path / "fresh"
    code, report, err = run(capsys, argv + ["--out", str(fresh)])
    assert (code, err) == (0, "")
    assert run(capsys, argv + ["--out", str(own)]) == (0, report.replace(str(fresh), str(own)), "")
    assert own.read_bytes() == fresh.read_bytes()


def test_graph_op_add_and_adjoint(files, capsys):
    for argv in (
        ["graph-op", "add", "--graph", files["swap.wg"], "--factor=-0.5i"],
        ["graph-op", "adjoint", "--graph", files["swap.wg"]],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "SELF-CHECK: ok" in out


def test_graph_op_compose(files, capsys):
    code, out, _ = run(capsys, [
        "graph-op", "compose", "--graph", files["cycle8.wg"], "--other", files["cycle8.wg"],
    ])
    assert code == 0
    assert "OTHER ORDER: 8" in out
    assert "SELF-CHECK: ok" in out


def test_graph_op_deficiency(files, capsys):
    code, out, _ = run(capsys, [
        "graph-op", "deficiency", "--graph", files["cycle8.wg"],
        "--lambda", "0.5", "--R", "4", "--side", "left",
    ])
    assert code == 0
    assert "SIDE: left" in out
    assert "SELF-CHECK: ok" in out


def test_graph_op_missing_factor_is_an_input_error(files, capsys):
    code, out, err = run(capsys, ["graph-op", "scale", "--graph", files["swap.wg"]])
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:")


def test_spectrum_of_graph(files, capsys):
    code, out, _ = run(capsys, ["spectrum", "--graph", files["swap.wg"]])
    assert code == 0
    assert "SPECTRUM: -1.0 1.0" in out


def test_spectrum_values_match_closed_form(files, capsys):
    code, out, _ = run(capsys, ["spectrum", "--graph", files["cycle8.wg"]])
    assert code == 0
    line = [ln for ln in out.splitlines() if ln.startswith("SPECTRUM: ")][0]
    values = [parse_complex(tok) for tok in line.split(": ")[1].split()]
    assert np.max(np.abs(np.array(values) - circulant_spectrum(8))) <= 1e-10


def test_spectrum_membership_check(files, capsys):
    code, out, _ = run(capsys, [
        "spectrum", "--matrix", files["nil.mat"], "--check-lambda", "0",
    ])
    assert code == 0
    assert "MEMBER: yes" in out
    assert "SIDE: left" in out

    code, out, _ = run(capsys, [
        "spectrum", "--matrix", files["nil.mat"], "--check-lambda", "0.5",
    ])
    assert code == 0
    assert "MEMBER: no" in out


def test_hermitian_membership_reads_the_distance_to_the_spectrum(files, capsys):
    # the swap matrix has spectrum {-1, 1} and R = 2; both distances are (d/R)^2
    for lam, member, side, dist in (("1", True, "left", 0.0), ("0.5", False, "none", 0.0625),
                                    ("1+1i", False, "none", 0.25)):
        code, out, _ = run(capsys, ["spectrum", "--graph", files["swap.wg"], "--check-lambda", lam, "--json"])
        report = json.loads(out)
        assert code == 0
        assert (report["member"], report["side"]) == (member, side)
        assert report["dist-left"] == report["dist-right"] == dist


@pytest.mark.parametrize("flags, message", [
    (["--R", "1.5"], "radius 1.5 is below twice the norm bound 1.0"),
    (["--R", "1e200"], "radius must be positive with a finite nonzero square, got 1e+200"),
    (["--tol", "0"], "tol must be positive and finite, got 0.0"),
    (["--tol=-1"], "tol must be positive and finite, got -1.0"),
    (["--check-lambda", "nan"], "non-finite complex number 'nan'"),
])
def test_hermitian_membership_refuses_bad_input_with_the_same_messages(files, capsys, flags, message):
    argv = ["spectrum", "--graph", files["swap.wg"], "--check-lambda", "0.5", *flags]
    assert run(capsys, argv) == (2, "", f"ERROR: {message}\n")


def test_negative_complex_values_are_accepted_as_separate_arguments(files, capsys):
    for text, lam in (("-0.3+0.2i", -0.3 + 0.2j), ("-2i", -2j)):
        code, out, _ = run(capsys, [
            "spectrum", "--matrix", files["nil.mat"], "--check-lambda", text,
        ])
        assert code == 0
        line = [ln for ln in out.splitlines() if ln.startswith("LAMBDA: ")][0]
        assert parse_complex(line.split(": ")[1]) == lam
        assert "MEMBER: no" in out
    code, out, _ = run(capsys, [
        "graph-op", "scale", "--graph", files["swap.wg"], "--factor", "-0.3+0.2i",
    ])
    assert code == 0 and "SELF-CHECK: ok" in out
    code, out, _ = run(capsys, [
        "graph-op", "deficiency", "--graph", files["cycle8.wg"], "--lambda", "-2i", "--R", "6",
    ])
    assert code == 0 and "LAMBDA: " in out and "SELF-CHECK: ok" in out


def test_jobs_flag_is_a_usage_error(files):
    with pytest.raises(SystemExit) as e:
        main(["spectrum", "--graph", files["swap.wg"], "--jobs", "1"])
    assert e.value.code == 2


def test_spectrum_needs_exactly_one_source(files, capsys):
    code, _, err = run(capsys, [
        "spectrum", "--graph", files["swap.wg"], "--matrix", files["nil.mat"],
    ])
    assert code == 2 and err.startswith("ERROR:")
    code, _, err = run(capsys, ["spectrum"])
    assert code == 2 and err.startswith("ERROR:")


def test_cover_verify_good_and_bad(files, capsys):
    code, out, _ = run(capsys, ["cover", "verify", "--map", files["good.cov"]])
    assert code == 0
    assert "VIOLATIONS: 0" in out
    assert "VERIFIED: ok" in out

    code, out, _ = run(capsys, ["cover", "verify", "--map", files["bad.cov"]])
    assert code == 1
    assert "VIOLATION: weight" in out
    assert "VERIFIED: FAILED" in out


def test_cover_lift(files, capsys, tmp_path):
    out_path = str(tmp_path / "lifted.cov")
    code, out, _ = run(capsys, [
        "cover", "lift", "--graph", files["base2.wg"], "--volt", files["volt2.volt"],
        "--out", out_path,
    ])
    assert code == 0
    assert "COVER ORDER: 4" in out
    lifted = read_covering(out_path)
    assert lifted.cover.order == 4

    short = str(tmp_path / "short.volt")
    write_voltages(2, [(1, 0)], short)
    code, _, err = run(capsys, [
        "cover", "lift", "--graph", files["base2.wg"], "--volt", short,
    ])
    assert code == 2 and "ERROR:" in err


def test_cover_include(files, capsys):
    code, out, _ = run(capsys, ["cover", "include", "--map", files["good.cov"]])
    assert code == 0
    assert "INCLUDED: ok" in out
    assert "STEP 0:" in out

    code, out, _ = run(capsys, ["cover", "include", "--map", files["bad.cov"]])
    assert code == 1
    assert "INCLUDED: FAILED" in out


def test_cover_include_json_is_valid(files, capsys):
    code, out, _ = run(capsys, ["cover", "include", "--map", files["good.cov"], "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["included"] is True
    assert len(data["route-steps"]) == 2
    assert all(step["ok"] for step in data["route-steps"])
    _, text, _ = run(capsys, ["cover", "include", "--map", files["good.cov"]])
    lines = [line for line in text.splitlines() if line.startswith("STEP ")]
    assert [(line.split()[2], line.split()[-1]) for line in lines] == [
        (f"lambda={step['lambda']}", "ok" if step["ok"] else "FAILED") for step in data["route-steps"]]


def test_orbital_same_orbit(files, capsys):
    code, out, _ = run(capsys, [
        "orbital", "--action", files["odo.act"], "--element", files["adj.elt"],
        "--x", "000", "--y", "011", "--level", "3",
    ])
    assert code == 0
    assert "HAUSDORFF: 0.0" in out
    assert "LOCAL-ISO SATURATED: yes" in out
    assert "CROSS-MISSES: 0" in out
    assert "TRANSFER: ok" in out


def test_orbital_json_fields(files, capsys):
    code, out, _ = run(capsys, [
        "orbital", "--action", files["odo.act"], "--element", files["adj.elt"],
        "--x", "000", "--y", "011", "--level", "3", "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["orbit-x"]["size"] == 8
    assert data["transfer"] is True
    assert data["hausdorff"] == 0.0


def test_orbital_bad_inputs(files, capsys):
    code, _, err = run(capsys, [
        "orbital", "--action", files["odo.act"], "--element", files["adj.elt"],
        "--x", "000", "--y", "011", "--level", "12",
    ])
    assert code == 2 and "cap" in err

    code, _, err = run(capsys, [
        "orbital", "--action", files["odo.act"], "--element", files["adj.elt"],
        "--x", "000", "--y", "222", "--level", "3",
    ])
    assert code == 2 and "unknown point" in err

    code, _, err = run(capsys, [
        "orbital", "--action", files["odo.act"], "--element", files["adj.elt"],
        "--x", "000", "--y", "011",
    ])
    assert code == 2 and "level" in err


@pytest.fixture
def swap3(tmp_path):
    """A three-point action with the fixed point p and the swap of q and r, and the element a."""
    act, elt = tmp_path / "swap3.act", tmp_path / "a.elt"
    act.write_text("action 1\nkind perm\npoints 3\np\nq\nr\ngenerators 1\na 1 3 2\n")
    elt.write_text("element 1\nterms 1\na 1.0\n")
    return ["orbital", "--action", str(act), "--element", str(elt)]


def test_orbital_prints_a_miss_line_for_each_point_of_x_outside_the_y_spectrum(swap3, capsys):
    # the orbit of q has spectrum {-1, 1} and that of the fixed point p has {1}
    assert run(capsys, swap3 + ["--x", "q", "--y", "p"]) == (0, (
        "ELEMENT: a:1.0\nORBIT X: q size=2\nORBIT Y: p size=1\nR: 2.0\nSPECTRUM X: -1.0 1.0\n"
        "SPECTRUM Y: 1.0\nHAUSDORFF: 2.0\nLOCAL-ISO RADIUS: -1\nLOCAL-ISO SATURATED: no\n"
        "CROSS-CHECKS: 2\nCROSS-MISSES: 1\nMISS: lambda=-1.0 x=yes y=no\n"
        "TRANSFER: skipped (no match at transfer radius)\n"), "")
    code, out, _ = run(capsys, swap3 + ["--x", "q", "--y", "p", "--json"])
    data = json.loads(out)
    assert (code, data["cross-misses"], data["cross-miss-list"]) == (0, 1, ["-1.0"])


def test_orbital_reports_a_failed_transfer_and_exits_one(swap3, capsys, monkeypatch):
    monkeypatch.setattr(wgraph.orbital, "rayleigh_transfer", lambda *args: (1.0, 0.5))
    assert run(capsys, swap3 + ["--x", "q", "--y", "r"]) == (1, (
        "ELEMENT: a:1.0\nORBIT X: q size=2\nORBIT Y: r size=2\nR: 2.0\nSPECTRUM X: -1.0 1.0\n"
        "SPECTRUM Y: -1.0 1.0\nHAUSDORFF: 0.0\nLOCAL-ISO RADIUS: 2\nLOCAL-ISO SATURATED: yes\n"
        "CROSS-CHECKS: 2\nCROSS-MISSES: 0\nTRANSFER ALPHA: 1.0\nTRANSFER X: 1.0\nTRANSFER Y: 0.5\n"
        "TRANSFER DEVIATION: 0.5\nTRANSFER: FAILED\n"), "")


def test_demo_shift(capsys):
    code, out, _ = run(capsys, ["demo-shift", "--depth", "30", "--trials", "20"])
    assert code == 0
    assert "right-product distance of 1 at lambda=0: 0.25" in out
    assert "left-product distance of 1 at lambda=0: 0.0" in out
    assert "one-sided" in out.lower()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_demo_shift_refuses_fewer_than_one_trial(capsys, trials):
    for fmt in ([], ["--json"]):
        code, out, err = run(capsys, ["demo-shift", "--trials", trials, *fmt])
        assert (code, out, err) == (2, "", "ERROR: trials must be at least 1\n")


def test_demo_shift_json(capsys):
    code, out, _ = run(capsys, ["demo-shift", "--depth", "30", "--trials", "20", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["right-distance"] == 0.25
    assert data["left-distance"] == 0.0


def test_a_failed_demonstration_prints_its_verdict_and_exits_one(capsys, monkeypatch):
    real = wgraph.cli.shift_counterexample_report
    monkeypatch.setattr(wgraph.cli, "shift_counterexample_report", lambda **kw: dataclasses.replace(
        real(**kw), corange_kills_origin=False, one_sided_misses_membership=False))
    argv = ["demo-shift", "--depth", "5", "--trials", "3"]
    assert run(capsys, argv) == (1, (
        "shift-report 1\ndepth: 5\ntrials: 3\nR: 2.0\n"
        "CHECK isometry S*S=I on delta_k (k<=depth): pass\nCHECK S S* delta_0 = 0: FAIL\n"
        "CHECK <delta_0, S f> = 0 on random f: pass\n"
        "right-product distance of 1 at lambda=0: 0.25\nleft-product distance of 1 at lambda=0: 0.0\n"
        "VERDICT: demonstration failed; see the check lines above.\n"), "")
    assert run(capsys, argv + ["--json"]) == (1, (
        '{\n  "corange-kills-origin": false,\n  "depth": 5,\n  "isometry-exact": true,\n'
        '  "left-distance": 0.0,\n  "one-sided-misses-membership": false,\n  "passed": false,\n'
        '  "radius": 2.0,\n  "range-orthogonal-to-origin": true,\n  "right-distance": 0.25,\n'
        '  "trials": 3\n}\n'), "")


def test_parse_errors_surface_with_location(files, capsys, tmp_path):
    broken = tmp_path / "broken.wg"
    broken.write_text("wgraph 1\nvertices 1\nv\narcs 1\nv v nope 0\n")
    code, _, err = run(capsys, ["spectrum", "--graph", str(broken)])
    assert code == 2
    assert f"{broken}:5:" in err

    code, _, err = run(capsys, ["spectrum", "--graph", str(tmp_path / "missing.wg")])
    assert code == 2 and "ERROR:" in err


def test_matrix_over_the_dense_cap_is_refused_at_its_dim_line(capsys, tmp_path):
    big = tmp_path / "big.mat"
    big.write_text("matrix 1\ndim 100000000\n")
    code, out, err = run(capsys, ["spectrum", "--matrix", str(big), "--check-lambda", "0"])
    assert code == 2 and out == ""
    assert err == f"ERROR: {big}:2: dim 100000000 exceeds the dense cap 2048\n"


def test_missing_required_argument_exits_two(files):
    with pytest.raises(SystemExit) as e:
        main(["cover", "verify"])
    assert e.value.code == 2


def test_repeated_runs_are_identical(files, capsys):
    commands = [
        ["graph-op", "adjoint", "--graph", files["cycle8.wg"]],
        ["graph-op", "deficiency", "--graph", files["cycle8.wg"], "--lambda", "1", "--R", "4"],
        ["spectrum", "--graph", files["cycle8.wg"], "--check-lambda", "2"],
        ["cover", "verify", "--map", files["good.cov"]],
        ["cover", "include", "--map", files["good.cov"]],
        ["orbital", "--action", files["odo.act"], "--element", files["adj.elt"],
         "--x", "000", "--y", "001", "--level", "3"],
        ["demo-shift", "--depth", "20", "--trials", "10"],
    ]
    for argv in commands:
        for flag in ([], ["--json"]):
            first = run(capsys, argv + flag)
            second = run(capsys, argv + flag)
            assert first == second, argv + flag


def test_subprocess_runs_are_byte_identical(files):
    argv = [
        sys.executable, "-m", "wgraph.cli",
        "orbital", "--action", files["odo.act"], "--element", files["adj.elt"],
        "--x", "000", "--y", "011", "--level", "3", "--json",
    ]
    a = subprocess.run(argv, capture_output=True, check=True)
    b = subprocess.run(argv, capture_output=True, check=True)
    assert a.stdout == b.stdout and a.stdout
    assert json.loads(a.stdout.decode())["local-iso-saturated"] is True


@pytest.mark.parametrize("argv", [
    ["cover", "verify", "--map", "good.cov"],
    ["cover", "lift", "--graph", "base2.wg", "--volt", "volt2.volt"],
    ["demo-shift", "--depth", "5", "--trials", "2"],
])
def test_tol_is_a_usage_error_where_nothing_reads_it(files, argv):
    argv = [files.get(a, a) for a in argv]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as e:
        main(argv + ["--tol", "1e-3"])
    assert e.value.code == 2


def test_cover_include_computes_each_spectrum_once(files, capsys, monkeypatch):
    calls = []
    real = wgraph.covering.spectrum

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape[0])
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(wgraph.covering, "spectrum", counted)
    code, out, _ = run(capsys, ["cover", "include", "--map", files["good.cov"]])
    assert code == 0 and "INCLUDED: ok" in out
    assert sorted(calls) == [2, 4]


def test_cover_include_refuses_a_bad_radius_or_tol_before_any_spectrum(files, capsys, monkeypatch):
    calls = []
    real = wgraph.covering.spectrum

    def counted(matrix):
        calls.append(matrix.shape[0])
        return real(matrix)

    monkeypatch.setattr(wgraph.covering, "spectrum", counted)
    for bad in (["--R", "1e-4"], ["--tol", "0"]):
        code, out, err = run(capsys, ["cover", "include", "--map", files["good.cov"], *bad])
        assert code == 2 and out == "" and err.startswith("ERROR: ")
        assert calls == []
    code, out, _ = run(capsys, ["cover", "include", "--map", files["good.cov"]])
    assert code == 0 and len(calls) == 2


def test_deficiency_self_check_matches_the_out_of_place_formula(capsys, tmp_path):
    rng = np.random.default_rng(7)
    path = str(tmp_path / "g.wg")
    nonzero = 0
    for _ in range(6):
        graph = random_graph(rng, max_n=12)
        write_graph(graph, path)
        radius = 2.0 * norm_bound(graph) + 1.0
        for lam in (0.3 - 0.7j, -0.5 - 0.25j):
            for side in ("left", "right"):
                code, out, _ = run(capsys, [
                    "graph-op", "deficiency", "--graph", path, f"--lambda={lam.real!r}{lam.imag!r}i",
                    "--R", repr(radius), "--side", side, "--json",
                ])
                assert code == 0
                m = materialize(graph)
                shifted = m - lam * np.eye(graph.order)
                prod = shifted @ shifted.conj().T if side == "left" else shifted.conj().T @ shifted
                expected = np.eye(graph.order) - prod / radius**2
                got = materialize(deficiency_graph(graph, lam, radius, side=side))
                want = float(np.max(np.abs(got - expected)))
                assert json.loads(out)["self-check-deviation"] == want
                nonzero += want > 0
    assert nonzero


SPECTRUM = ["spectrum", "--graph", "swap.wg", "--check-lambda", "0.5"]
ORBITAL = ["orbital", "--action", "odo.act", "--element", "adj.elt", "--x", "000", "--y", "011",
           "--level", "3"]
INCLUDE = ["cover", "include", "--map", "good.cov"]
DEFICIENCY = ["graph-op", "deficiency", "--graph", "swap.wg", "--lambda", "0.5"]


@pytest.mark.parametrize("argv", [
    SPECTRUM + ["--R", "inf"],
    SPECTRUM + ["--R", "1e200"],
    SPECTRUM + ["--R", "nan"],
    SPECTRUM + ["--tol", "nan"],
    SPECTRUM + ["--tol", "inf"],
    ORBITAL + ["--tol", "nan"],
    ORBITAL + ["--tol", "inf"],
    INCLUDE + ["--R", "nan"],
    INCLUDE + ["--R", "inf"],
    INCLUDE + ["--tol", "nan"],
    INCLUDE + ["--tol", "inf"],
    DEFICIENCY + ["--R", "inf"],
    DEFICIENCY + ["--R", "4", "--tol", "-1"],
    DEFICIENCY + ["--R", "4", "--tol", "nan"],
    DEFICIENCY + ["--R", "4", "--tol", "inf"],
])
def test_radius_or_tol_out_of_range_is_an_input_error(files, capsys, argv):
    code, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("ERROR:") and err.count("\n") == 1
    assert ("radius" if argv[-2] == "--R" else "tol") in err


def test_graph_op_tol_zero_is_an_exact_check(files, capsys):
    code, out, _ = run(capsys, ["graph-op", "adjoint", "--graph", files["swap.wg"], "--tol", "0"])
    assert code == 0 and "SELF-CHECK: ok" in out


def test_cover_lift_over_the_arc_cap_exits_two(files, capsys, monkeypatch):
    argv = ["cover", "lift", "--graph", files["base2.wg"], "--volt", files["volt2.volt"]]
    monkeypatch.setattr(wgraph.operator, "MAX_ARCS", 3)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "ERROR: cover would have 4 vertices and 4 arcs; the arc cap is 3\n"
    monkeypatch.setattr(wgraph.operator, "MAX_ARCS", 4)
    assert run(capsys, argv)[0] == 0


@pytest.mark.parametrize("name, text, line", [
    ("v.wg", "wgraph 1\nvertices 4\na\nb\nc\nd\narcs 0\n", 2),
    ("a.wg", "wgraph 1\nvertices 1\na\narcs 4\n", 4),
    ("m.cov", "covering 1\ncover\nvertices 1\na\narcs 0\nbase\nvertices 1\nb\narcs 0\nvertex-map 4\n", 10),
    ("k.cov", "covering 1\ncover\nvertices 1\na\narcs 0\nbase\nvertices 1\nb\narcs 0\nvertex-map 1\na b\n"
              "arc-map 4\n", 12),
    ("s.volt", "voltage 1\ndegree 1\narcs 4\n", 3),
])
def test_a_count_line_past_the_arc_cap_is_refused_at_its_line(capsys, tmp_path, monkeypatch, name, text, line):
    # no line past the count is read: the file ends there
    path = tmp_path / name
    path.write_text(text)
    monkeypatch.setattr(wgraph.operator, "MAX_ARCS", 3)
    reader = {"wg": wgraph.read_graph, "cov": wgraph.read_covering, "volt": wgraph.read_voltages}[name.split(".")[1]]
    with pytest.raises(wgraph.ParseError, match=f":{line}: .* 4 exceeds the arc cap 3$"):
        reader(str(path))
    argv = {"wg": ["spectrum", "--graph", str(path)], "cov": ["cover", "verify", "--map", str(path)],
            "volt": ["cover", "lift", "--graph", str(path), "--volt", str(path)]}[name.split(".")[1]]
    if name.endswith(".volt"):
        argv[3] = str(tmp_path / "one.wg")
        (tmp_path / "one.wg").write_text("wgraph 1\nvertices 1\na\narcs 0\n")
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and err.startswith("ERROR: ") and err.endswith("exceeds the arc cap 3\n")


def test_cover_include_over_the_dense_cap_names_the_cover_order(files, capsys, monkeypatch):
    # both graphs exceed the cap; the cover, with 4 vertices, is the one refused
    monkeypatch.setattr(wgraph.operator, "MAX_DENSE_DIM", 1)
    code, out, err = run(capsys, ["cover", "include", "--map", files["good.cov"]])
    assert code == 2 and out == ""
    assert err == "ERROR: graph has 4 vertices; the dense cap is 1\n"


def test_cover_include_accepts_an_all_zero_covering(capsys, tmp_path):
    base = make_graph(["x", "y"], [("x", "y", 0.0), ("y", "x", 0.0)], [1, 0])
    path = str(tmp_path / "zero.cov")
    write_covering(voltage_cover(base, 2, [(1, 0), (1, 0)])[1], path)
    code, out, _ = run(capsys, ["cover", "include", "--map", path])
    assert code == 0 and "INCLUDED: ok" in out
    assert "ROUTE R: 2e-12" in out


def test_cover_include_refuses_a_radius_below_twice_the_bound(capsys, tmp_path):
    # at R = 1e-4 the route's distances are rounding noise of order 1e-8, no verdict
    base = make_graph(
        ["x", "y", "z"],
        [("x", "y", 0.3 + 0.4j), ("y", "x", 0.7), ("y", "z", -0.6j), ("z", "y", 0.2), ("z", "z", 0.9)],
        [1, 0, 3, 2, 4],
    )
    path = str(tmp_path / "tri.cov")
    write_covering(voltage_cover(base, 2, [(1, 0), (1, 0), (0, 1), (0, 1), (1, 0)])[1], path)
    code, out, err = run(capsys, ["cover", "include", "--map", path, "--R", "1e-4"])
    assert code == 2 and out == ""
    assert err.startswith("ERROR: radius 0.0001 is below twice the norm bound") and err.count("\n") == 1


def test_spectrum_of_huge_entries_has_a_finite_bound(capsys, tmp_path):
    path = str(tmp_path / "huge.mat")
    write_matrix(np.full((2, 2), 1e200), path)
    code, out, _ = run(capsys, ["spectrum", "--matrix", path])
    assert code == 0 and "ORDER: 2" in out
    code, out, err = run(capsys, ["spectrum", "--matrix", path, "--check-lambda", "0"])
    assert code == 2 and out == ""
    assert err == "ERROR: the default radius, twice the norm bound 2e+200, has no finite square\n"


def test_cover_lift_leaves_the_voltage_count_to_the_library(files, capsys, tmp_path):
    short = str(tmp_path / "short.volt")
    write_voltages(2, [(1, 0)], short)
    code, out, err = run(capsys, ["cover", "lift", "--graph", files["base2.wg"], "--volt", short])
    assert code == 2 and out == ""
    assert err == "ERROR: need one voltage per arc: got 1 for 2 arcs\n"


def test_cover_commands_on_a_base_with_no_arcs(capsys, tmp_path):
    graph, volt, cov = (str(tmp_path / name) for name in ("point.wg", "point.volt", "point.cov"))
    write_graph(make_graph(["v"], [], []), graph)
    write_voltages(2, [], volt)
    code, out, _ = run(capsys, ["cover", "lift", "--graph", graph, "--volt", volt, "--out", cov])
    assert code == 0 and "COVER ORDER: 2\n" in out and "VERIFIED: ok\n" in out
    code, out, _ = run(capsys, ["cover", "verify", "--map", cov])
    assert code == 0 and "VERIFIED: ok\n" in out
    code, out, _ = run(capsys, ["cover", "include", "--map", cov])
    assert code == 0 and "INCLUDED: ok\n" in out


CLI_OPS = {  # flags after --graph, and the library call the written file must match
    "scale": (["--factor", "2-0.5i"], lambda g, o: scale(g, 2 - 0.5j)),
    "add": (["--factor", "-1.25"], lambda g, o: add_scalar(g, -1.25)),
    "adjoint": ([], lambda g, o: adjoint(g)),
    "compose": (["--other", "other.wg"], compose),
    "deficiency": (["--lambda", "0.3-0.7i", "--R", "50", "--side", "left"],
                   lambda g, o: deficiency_graph(g, 0.3 - 0.7j, 50.0, side="left")),
}


@pytest.fixture(scope="module")
def op_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("opfiles")
    rng = np.random.default_rng(131)
    graphs = {"graph.wg": random_graph(rng, n=12), "other.wg": random_graph(rng, n=12)}
    for name, g in graphs.items():
        write_graph(g, str(d / name))
    return d, graphs


@pytest.mark.parametrize("op", sorted(CLI_OPS))
def test_graph_op_out_changes_no_report_line_and_writes_the_library_result(op, op_files, capsys, tmp_path):
    d, graphs = op_files
    flags, build = CLI_OPS[op]
    argv = ["graph-op", op, "--graph", str(d / "graph.wg")] + [str(d / f) if f in graphs else f for f in flags]
    out_path = str(tmp_path / "out.wg")
    for fmt in ([], ["--json"]):
        code, plain, err = run(capsys, argv + fmt)
        code_out, written, err_out = run(capsys, argv + fmt + ["--out", out_path])
        assert code == code_out == 0 and err == err_out == ""
        if fmt:
            data = json.loads(written)
            assert data.pop("wrote") == out_path and data == json.loads(plain)
        else:
            assert written == plain + f"WROTE: {out_path}\n"
        assert "SELF-CHECK: ok" in plain or json.loads(plain)["self-check"] is True
    serial = tmp_path / "serial.wg"
    write_graph(build(graphs["graph.wg"], graphs["other.wg"]), str(serial))
    assert (tmp_path / "out.wg").read_bytes() == serial.read_bytes()


def test_graph_op_write_error_exits_two_once_the_check_thread_has_ended(files, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(wgraph.spectra, "_PAIR_MIN_ORDER", 0)  # the check runs on a second thread
    threads = threading.active_count()
    bad = str(tmp_path / "missing" / "out.wg")
    code, out, err = run(capsys, ["graph-op", "adjoint", "--graph", files["cycle8.wg"], "--out", bad])
    assert code == 2 and out == ""
    assert err == f"ERROR: [Errno 2] No such file or directory: {bad!r}\n"
    assert threading.active_count() == threads


@pytest.mark.parametrize("op", sorted(CLI_OPS))
@pytest.mark.parametrize("out_dir", ["", "missing"])
def test_an_error_in_the_self_check_exits_two_with_its_message(op, out_dir, op_files, capsys, tmp_path,
                                                                monkeypatch):
    d, graphs = op_files
    materialize = wgraph.cli.materialize

    def main_thread_only(graph):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("the check ran out of room")
        return materialize(graph)

    monkeypatch.setattr(wgraph.cli, "materialize", main_thread_only)
    monkeypatch.setattr(wgraph.spectra, "_PAIR_MIN_ORDER", 0)  # the check runs on a second thread
    flags = CLI_OPS[op][0]
    out_path = str(tmp_path / out_dir / "out.wg")
    argv = ["graph-op", op, "--graph", str(d / "graph.wg"), "--out", out_path]
    code, out, err = run(capsys, argv + [str(d / f) if f in graphs else f for f in flags])
    # the check's error is reported, not the write's, as when the check ran first
    assert code == 2 and out == "" and err == "ERROR: the check ran out of room\n"


@pytest.mark.parametrize("out_dir", ["", "missing"])
def test_below_the_pair_floor_the_check_runs_first_on_the_calling_thread(out_dir, op_files, capsys, tmp_path,
                                                                          monkeypatch):
    d, _ = op_files
    threads = []

    def failing_check(*args):
        threads.append(threading.current_thread())
        raise ValueError("the check ran out of room")

    monkeypatch.setattr(wgraph.cli, "_self_check_deviation", failing_check)
    out_path = tmp_path / out_dir / "out.wg"
    code, out, err = run(capsys, ["graph-op", "adjoint", "--graph", str(d / "graph.wg"), "--out", str(out_path)])
    # the 12-vertex graph is below the floor; the write still ran, and the check's error is reported
    assert threads == [threading.main_thread()]
    assert code == 2 and out == "" and err == "ERROR: the check ran out of room\n"
    assert out_path.exists() == (out_dir == "")


def test_a_failed_self_check_still_writes_the_result(op_files, capsys, tmp_path, monkeypatch):
    d, graphs = op_files
    deficiency_matrix = wgraph.cli._deficiency_matrix
    monkeypatch.setattr(wgraph.cli, "_deficiency_matrix",
                        lambda m, radius, side: deficiency_matrix(m, radius, side) + 1e-9)
    flags, build = CLI_OPS["deficiency"]
    out_path = tmp_path / "out.wg"
    code, out, err = run(capsys, ["graph-op", "deficiency", "--graph", str(d / "graph.wg"), *flags,
                                  "--out", str(out_path)])
    assert code == 1 and err == ""
    assert out.endswith(f"SELF-CHECK: FAILED\nWROTE: {out_path}\n")
    serial = tmp_path / "serial.wg"
    write_graph(build(graphs["graph.wg"], None), str(serial))
    assert out_path.read_bytes() == serial.read_bytes()


def test_an_error_of_the_membership_thread_exits_two_with_its_message(files, capsys, monkeypatch):
    monkeypatch.setattr(wgraph.spectra, "_PAIR_MIN_ORDER", 2)  # the 2 x 2 nilpotent gets a second thread
    threads = []

    def failing(*args):
        threads.append(threading.current_thread())
        raise ValueError("the membership test ran out of room")

    monkeypatch.setattr(wgraph.spectra, "membership_by_deficiency", failing)
    before = threading.active_count()
    code, out, err = run(capsys, ["spectrum", "--matrix", files["nil.mat"], "--check-lambda", "0"])
    assert (code, out, err) == (2, "", "ERROR: the membership test ran out of room\n")
    assert len(threads) == 1 and threads[0] is not threading.main_thread()
    assert threading.active_count() == before


@pytest.mark.parametrize("floor", [0, 10**6])
def test_a_bad_matrix_is_refused_before_a_bad_point_or_tol(files, capsys, monkeypatch, floor):
    monkeypatch.setattr(wgraph.spectra, "_PAIR_MIN_ORDER", floor)
    monkeypatch.setattr(wgraph.cli, "read_matrix", lambda path: np.array([[np.inf, 0.0], [0.0, 1.0]]))
    for flags in (["--tol", "0"], ["--check-lambda", "nan", "--tol", "0"], ["--R", "1e-9"]):
        argv = ["spectrum", "--matrix", files["nil.mat"], "--check-lambda", "0", *flags]
        assert run(capsys, argv) == (2, "", "ERROR: spectrum: matrix has non-finite entries\n")


def test_check_lambda_reports_are_the_same_on_one_thread_and_two(files, capsys, monkeypatch):
    def reports(floor):
        monkeypatch.setattr(wgraph.spectra, "_PAIR_MIN_ORDER", floor)
        return [run(capsys, ["spectrum", "--matrix" if path.endswith(".mat") else "--graph", files[path],
                             "--check-lambda", lam, *fmt])
                for path in ("nil.mat", "swap.wg", "cycle8.wg") for lam in ("0", "1", "0.5+0.25i")
                for fmt in ([], ["--json"])]

    paired, serial = reports(0), reports(10**6)
    assert paired == serial and all(code == 0 for code, _, _ in serial)


@pytest.mark.parametrize("floor", [0, 10**6])
def test_check_lambda_bounds_and_checks_the_matrix_once_outside_the_dense_test(files, capsys, monkeypatch, floor):
    monkeypatch.setattr(wgraph.spectra, "_PAIR_MIN_ORDER", floor)
    calls = []

    def counting(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(name) or real(*a))

    counting(wgraph.spectra, "matrix_norm_bound")
    counting(wgraph.spectra, "_as_square_matrix")
    counting(wgraph.cli, "_as_square_matrix")
    counting(wgraph.spectra, "membership_by_deficiency")
    counting(wgraph.spectra, "spectrum")
    counting(wgraph.spectra, "is_hermitian")
    for path, lam in (("nil.mat", "0"), ("swap.wg", "0.5"), ("cycle8.wg", "1"), ("cycle8.wg", "0.3+0.1i")):
        del calls[:]
        flag = "--matrix" if path.endswith(".mat") else "--graph"
        code, _, _ = run(capsys, ["spectrum", flag, files[path], "--check-lambda", lam])
        assert code == 0
        # only the non-Hermitian matrix gets the dense test, beside the public spectrum; both
        # check and bound their argument, and the public spectrum tests its symmetry
        assert calls.count("spectrum") == calls.count("membership_by_deficiency") == (path == "nil.mat")
        public = calls.count("spectrum") + calls.count("membership_by_deficiency")
        assert calls.count("matrix_norm_bound") == calls.count("_as_square_matrix") == 1 + public
        assert calls.count("is_hermitian") == 1 + calls.count("spectrum")
