"""Committed bytes of every command-line output that involves no LAPACK.

Each case runs ``main`` in a fresh directory that holds the fixture files below, and compares
its exit code, stdout, stderr and each file it writes with the files under ``tests/pins``:
``<case>.stdout``, ``<case>.stderr`` and ``<case>.<file>``, an empty stream having no file.
Spectra and the ``graph-op`` reports are left out, as the bits of a spectrum and of
``SELF-CHECK DEVIATION`` depend on the BLAS build; of ``graph-op`` only the written graph is
pinned.
"""

from pathlib import Path

import pytest

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
}

# case: (argv, exit code, files written, whether stdout is pinned)
CASES = {
    **{f"demo-shift{suffix}{fmt}": (["demo-shift", *flags, *json], 0, (), True)
       for suffix, flags in (("", []), ("-d50-t50-s7", ["--depth", "50", "--trials", "50", "--seed", "7"]))
       for fmt, json in (("", []), ("-json", ["--json"]))},
    "demo-shift-depth0": (["demo-shift", "--depth", "0"], 2, (), True),
    "demo-shift-trials0": (["demo-shift", "--trials", "0"], 2, (), True),
    **{f"graph-op-{name}": (["graph-op", *flags, "--graph", "g.wg", "--out", "out.wg"], 0, ("out.wg",), False)
       for name, flags in (("scale", ["scale", "--factor", "0.5-2i"]),
                           ("adjoint", ["adjoint"]),
                           ("compose", ["compose", "--other", "h.wg"]),
                           ("deficiency-right", ["deficiency", "--lambda", "0.5+0.25i", "--R", "8"]),
                           ("deficiency-left", ["deficiency", "--lambda", "-1", "--R", "10", "--side", "left"]))},
    **{f"cover-lift{fmt}": (["cover", "lift", "--graph", "g.wg", "--volt", "g.volt", "--out", "g.cov", *json],
                            0, () if json else ("g.cov",), True)
       for fmt, json in (("", []), ("-json", ["--json"]))},
    **{f"cover-verify-{name}{fmt}": (["cover", "verify", "--map", f"{name}.cov", *json], code, (), True)
       for name, code in (("good", 0), ("bad", 1))
       for fmt, json in (("", []), ("-json", ["--json"]))},
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
    for pin, data in run_case(name, tmp_path, capsys).items():
        path = PINS / pin
        assert (path.read_bytes() if path.exists() else b"") == data, pin


def test_every_pin_file_belongs_to_a_case():
    names = {f"{name}.{stream}" for name in CASES for stream in ("stdout", "stderr")}
    names |= {f"{name}.{file}" for name, (_, _, written, _) in CASES.items() for file in written}
    assert [p.name for p in PINS.iterdir() if p.name not in names] == []
