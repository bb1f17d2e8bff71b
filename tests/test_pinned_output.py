"""Committed bytes of every command-line output that involves no LAPACK.

Each case runs ``main`` in a fresh directory that holds the fixture files below, and compares
its exit code, stdout, stderr and each file it writes with the files under ``tests/pins``:
``<case>.stdout``, ``<case>.stderr`` and ``<case>.<file>``, an empty stream having no file.
Spectra and the ``graph-op`` reports are left out, as the bits of a spectrum and of
``SELF-CHECK DEVIATION`` depend on the BLAS build; of ``graph-op`` only the written graph and
the refusals are pinned, and of ``spectrum`` the written matrix and the refusals.
"""

from pathlib import Path

import pytest

import wgraph.operator
from wgraph.cli import main

PINS = Path(__file__).parent / "pins"

FIXTURES = {
    # three vertices with complex weights, a self-paired loop and a pair of opposite arcs
    "g.wg": ["wgraph 1", "vertices 3", "a", "b", "c", "arcs 7", "a b 1.0+2.0i 1", "b a 0.5 0",
             "b c 0.0-1.5i 3", "c b 2.0 2", "c c 0.25 4", "a c 1.0 6", "c a -1.0 5"],
    "h.wg": ["wgraph 1", "vertices 3", "a", "b", "c", "arcs 4", "a a -0.5+0.5i 0", "b c 3.0 2",
             "c b 0.0+1.0i 1", "c c 2.0 3"],
    "g.volt": ["voltage 1", "degree 3", "arcs 7", "2 3 1", "3 1 2", "1 2 3", "1 2 3", "2 1 3",
               "3 2 1", "3 2 1"],
    # the 2-sheet lift of a two-cycle, and a copy with a wrong weight and a wrong vertex image
    **{name: ["covering 1", "cover", "vertices 4", "x@1", "x@2", "y@1", "y@2", "arcs 4",
              f"x@1 y@2 {w} 3", "x@2 y@1 1.0 2", "y@1 x@2 2.0 1", "y@2 x@1 2.0 0",
              "base", "vertices 2", "x", "y", "arcs 2", "x y 1.0 1", "y x 2.0 0",
              "vertex-map 4", "x@1 x", "x@2 x", "y@1 y", f"y@2 {image}",
              "arc-map 4", "0 0", "1 0", "2 1", "3 1"]
       for name, w, image in (("good.cov", "1.0", "y"), ("bad.cov", "1.5", "x"))},
    # the inputs of the refusals below
    "swap.wg": ["wgraph 1", "vertices 2", "x", "y", "arcs 2", "x y 1.0 1", "y x 1.0 0"],
    "huge.wg": ["wgraph 1", "vertices 2", "x", "y", "arcs 2", "x y 1e+308+1e+308i 1", "y x 1e+308 0"],
    "broken.wg": ["wgraph 1", "vertices 1", "v", "arcs 1", "v v nope 0"],
    "huge.mat": ["matrix 1", "dim 2", "1e+200 1e+200", "1e+200 1e+200"],
    "big.mat": ["matrix 1", "dim 100000000"],
    "swap.volt": ["voltage 1", "degree 2", "arcs 2", "2 1", "2 1"],
    "short.volt": ["voltage 1", "degree 2", "arcs 1", "2 1"],
    "odo.act": ["action 1", "kind mealy", "alphabet 0 1", "states 2", "state a", "0 1 e", "1 0 a",
                "state e", "0 0 e", "1 1 e"],
    "adj.elt": ["element 1", "terms 2", "a 1.0", "a' 1.0"],
}

SPECTRUM = ["spectrum", "--graph", "swap.wg", "--check-lambda", "0.5"]
ORBITAL = ["orbital", "--action", "odo.act", "--element", "adj.elt", "--x", "000", "--y", "011"]
INCLUDE = ["cover", "include", "--map", "good.cov"]
DEFICIENCY = ["graph-op", "deficiency", "--graph", "swap.wg", "--lambda", "0.5"]

# the refusals of tests/test_cli.py, each exiting 2 with one ERROR line; usage errors are left to
# argparse, whose text differs between Python versions and terminal widths
REFUSALS = {
    "graph-op-scale-overflow": ["graph-op", "scale", "--graph", "huge.wg", "--factor", "1e308", "--out", "s.wg"],
    "graph-op-compose-overflow": ["graph-op", "compose", "--graph", "huge.wg", "--other", "huge.wg", "--out", "s.wg"],
    "graph-op-scale-no-factor": ["graph-op", "scale", "--graph", "swap.wg"],
    "graph-op-out-in-a-missing-directory": ["graph-op", "adjoint", "--graph", "swap.wg", "--out", "missing/out.wg"],
    "graph-op-out-empty": ["graph-op", "adjoint", "--graph", "missing.wg", "--out", ""],
    "graph-op-deficiency-R-inf": DEFICIENCY + ["--R", "inf"],
    **{f"graph-op-deficiency-tol-{tol}": DEFICIENCY + ["--R", "4", "--tol", tol] for tol in ("-1", "nan", "inf")},
    **{f"spectrum-R-{r}": SPECTRUM + ["--R", r] for r in ("1.5", "1e200", "inf", "nan")},
    **{f"spectrum-tol-{tol}": SPECTRUM + [f"--tol={tol}"] for tol in ("0", "-1", "nan", "inf")},
    "spectrum-lambda-nan": SPECTRUM + ["--check-lambda", "nan"],
    "spectrum-no-source": ["spectrum"],
    "spectrum-bad-weight": ["spectrum", "--graph", "broken.wg"],
    "spectrum-missing-file": ["spectrum", "--graph", "missing.wg"],
    "spectrum-dim-past-the-cap": ["spectrum", "--matrix", "big.mat", "--check-lambda", "0"],
    "spectrum-default-radius-overflows": ["spectrum", "--matrix", "huge.mat", "--check-lambda", "0"],
    "cover-lift-short-voltages": ["cover", "lift", "--graph", "swap.wg", "--volt", "short.volt"],
    "cover-lift-past-the-arc-cap": ["cover", "lift", "--graph", "swap.wg", "--volt", "swap.volt"],
    "cover-include-past-the-dense-cap": INCLUDE,
    **{f"cover-include-R-{r}": INCLUDE + ["--R", r] for r in ("1e-4", "nan", "inf")},
    **{f"cover-include-tol-{tol}": INCLUDE + ["--tol", tol] for tol in ("0", "nan", "inf")},
    "orbital-level-past-the-cap": ORBITAL + ["--level", "12"],
    "orbital-unknown-point": ORBITAL[:-1] + ["222", "--level", "3"],
    "orbital-no-level": ORBITAL,
    **{f"orbital-tol-{tol}": ORBITAL + ["--level", "3", "--tol", tol] for tol in ("nan", "inf")},
    "demo-shift-trials-3": ["demo-shift", "--trials", "-3"],
    **{f"demo-shift-{name}-json": ["demo-shift", *flags, "--json"]
       for name, flags in (("depth0", ["--depth", "0"]), ("trials0", ["--trials", "0"]),
                           ("trials-3", ["--trials", "-3"]))},
}

# caps lowered in wgraph.operator for a case
PATCHES = {"cover-lift-past-the-arc-cap": ("MAX_ARCS", 3), "cover-include-past-the-dense-cap": ("MAX_DENSE_DIM", 1)}

# case: (argv, exit code, files written, whether stdout is pinned)
CASES = {
    **{f"demo-shift{suffix}{fmt}": (["demo-shift", *flags, *json], 0, (), True)
       for suffix, flags in (("", []), ("-d50-t50-s7", ["--depth", "50", "--trials", "50", "--seed", "7"]))
       for fmt, json in (("", []), ("-json", ["--json"]))},
    "demo-shift-depth0": (["demo-shift", "--depth", "0"], 2, (), True),
    "demo-shift-trials0": (["demo-shift", "--trials", "0"], 2, (), True),
    **{f"graph-op-{name}": (["graph-op", *flags, "--graph", "g.wg", "--out", "out.wg"], 0, ("out.wg",), False)
       for name, flags in (("scale", ["scale", "--factor", "0.5-2i"]),
                           ("add", ["add", "--factor", "0.5-2i"]),
                           ("adjoint", ["adjoint"]),
                           ("compose", ["compose", "--other", "h.wg"]),
                           ("deficiency-right", ["deficiency", "--lambda", "0.5+0.25i", "--R", "8"]),
                           ("deficiency-left", ["deficiency", "--lambda", "-1", "--R", "10", "--side", "left"]))},
    # the refusals of a missing or contradictory flag
    **{f"graph-op-{name}": (["graph-op", *flags, "--graph", "g.wg", "--out", "out.wg"], 2, (), True)
       for name, flags in (("add-no-factor", ["add"]),
                           ("compose-no-other", ["compose"]),
                           ("deficiency-no-lambda", ["deficiency", "--R", "8"]),
                           ("deficiency-no-R", ["deficiency", "--lambda", "1"]))},
    "spectrum-graph-and-matrix": (["spectrum", "--graph", "g.wg", "--matrix", "g.wg"], 2, (), True),
    # of spectrum only the written matrix, which involves no LAPACK
    "spectrum-out": (["spectrum", "--graph", "g.wg", "--out", "m.mat"], 0, ("m.mat",), False),
    **{f"cover-lift{fmt}": (["cover", "lift", "--graph", "g.wg", "--volt", "g.volt", "--out", "g.cov", *json],
                            0, () if json else ("g.cov",), True)
       for fmt, json in (("", []), ("-json", ["--json"]))},
    **{f"cover-verify-{name}{fmt}": (["cover", "verify", "--map", f"{name}.cov", *json], code, (), True)
       for name, code in (("good", 0), ("bad", 1))
       for fmt, json in (("", []), ("-json", ["--json"]))},
    **{name: (argv, 2, (), True) for name, argv in REFUSALS.items()},
}


def run_case(name: str, directory: Path, capsys) -> dict[str, bytes]:
    """The outputs of case ``name`` run in ``directory``, by the name of their pin file."""
    argv, code, written, pinned_stdout = CASES[name]
    for fixture, lines in FIXTURES.items():
        (directory / fixture).write_text("\n".join(lines) + "\n")
    assert main(argv) == code
    out, err = capsys.readouterr()
    outputs = {f"{name}.stdout": out.encode() if pinned_stdout else b"", f"{name}.stderr": err.encode()}
    outputs.update({f"{name}.{file}": (directory / file).read_bytes() for file in written})
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_the_committed_bytes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if name in PATCHES:
        monkeypatch.setattr(wgraph.operator, *PATCHES[name])
    for pin, data in run_case(name, tmp_path, capsys).items():
        path = PINS / pin
        assert (path.read_bytes() if path.exists() else b"") == data, pin


def test_every_pin_file_belongs_to_a_case():
    names = {f"{name}.{stream}" for name in CASES for stream in ("stdout", "stderr")}
    names |= {f"{name}.{file}" for name, (_, _, written, _) in CASES.items() for file in written}
    assert [p.name for p in PINS.iterdir() if p.name not in names] == []
