"""A bounded, derandomized fuzz of the command line.

Valid files of the six formats are mutated (lines dropped, duplicated or swapped, a token
replaced by a huge count, a non-finite or extreme number, an unknown id or a ``#`` token) and
run through the in-process ``main``.  Every run must exit 0, 1 or 2 without an exception; exit 1
comes only with a ``FAILED`` line, exit 2 only with one ``ERROR:`` line; and every file written
with ``--out`` reads back.
"""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgraph import read_covering, read_graph, read_matrix
from wgraph.cli import main

GRAPH = """wgraph 1
vertices 2
x
y
arcs 3
x y 1.0 1
y x 0.5-0.25i 0
x x 2.0 2
"""

MATRIX = """matrix 1
dim 2
1.0 0.5+1.0i
-0.5i 2.0
"""

COVERING = """covering 1
cover
vertices 4
x@1
x@2
y@1
y@2
arcs 6
x@1 y@2 1.0 3
x@2 y@1 1.0 2
y@1 x@2 0.5-0.25i 1
y@2 x@1 0.5-0.25i 0
x@1 x@1 2.0 4
x@2 x@2 2.0 5
base
""" + GRAPH.removeprefix("wgraph 1\n") + """vertex-map 4
x@1 x
x@2 x
y@1 y
y@2 y
arc-map 6
0 0
1 0
2 1
3 1
4 2
5 2
"""

VOLTAGES = """voltage 1
degree 2
arcs 3
2 1
2 1
1 2
"""

PERM_ACTION = """action 1
kind perm
points 4
p
q
r
s
generators 4
a 2 1 4 3
b 1 3 2 4
c 1 3 2 4
d 1 2 3 4
"""

MEALY_ACTION = """action 1
kind mealy
alphabet 0 1
states 5
state a
0 1 e
1 0 e
state b
0 0 a
1 1 c
state c
0 0 a
1 1 d
state d
0 0 e
1 1 b
state e
0 0 e
1 1 e
"""

ELEMENT = """element 1
terms 4
a 1.0
b 0.5
c 0.25+0.5i
d b 1.0
"""

READERS = {".wg": read_graph, ".mat": read_matrix, ".cov": read_covering}

# per mutated format: its valid text, the files the commands read beside it, and the commands,
# where "{f}" is the mutated file, "{g}" the valid graph, "{elt}" the valid element, "{act}" the
# valid transducer action and "{out}" an output path whose suffix names its reader
CASES = {
    "wg": (GRAPH, [
        ["graph-op", "scale", "--graph", "{f}", "--factor", "2", "--out", "{out}.wg"],
        ["graph-op", "compose", "--graph", "{f}", "--other", "{g}", "--out", "{out}.wg"],
        ["graph-op", "deficiency", "--graph", "{f}", "--lambda", "0.5", "--R", "10", "--side", "left",
         "--out", "{out}.wg"],
        ["spectrum", "--graph", "{f}", "--check-lambda", "1", "--out", "{out}.mat"],
    ]),
    "mat": (MATRIX, [["spectrum", "--matrix", "{f}", "--check-lambda", "1", "--out", "{out}.mat"]]),
    "cov": (COVERING, [["cover", "verify", "--map", "{f}"], ["cover", "include", "--map", "{f}"]]),
    "volt": (VOLTAGES, [["cover", "lift", "--graph", "{g}", "--volt", "{f}", "--out", "{out}.cov"]]),
    "act perm": (PERM_ACTION, [["orbital", "--action", "{f}", "--element", "{elt}", "--x", "p", "--y", "r"]]),
    "act mealy": (MEALY_ACTION, [["orbital", "--action", "{f}", "--element", "{elt}", "--x", "000",
                                  "--y", "101", "--level", "3"]]),
    "elt": (ELEMENT, [["orbital", "--action", "{act}", "--element", "{f}", "--x", "000", "--y", "101",
                       "--level", "3"]]),
}

HOSTILE = ["0", "-1", "3", "999999999999", "9" * 40, "1e308", "-1e308", "1e308+1e308i", "5e-324",
           "1e400", "nan", "inf", "-inf+1i", "zz", "x", "p", "e", "a'", "#", "#x"]

mutations = st.lists(st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("dup"), st.integers(0, 99)),
    st.tuples(st.just("swap"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("token"), st.integers(0, 999), st.sampled_from(HOSTILE)),
), min_size=1, max_size=3)


def mutate(text: str, ops) -> str:
    lines = text.splitlines()
    for op, *args in ops:
        if not lines:
            break
        i = args[0] % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = args[1] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:  # replace the i-th token of the file
            at = [(n, k) for n, line in enumerate(lines) for k in range(len(line.split()))]
            n, k = at[args[0] % len(at)]
            tokens = lines[n].split()
            tokens[k] = args[1]
            lines[n] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_run(argv, out):
    """Run ``argv`` and check its exit code, its output and the file it writes at a path that
    starts with ``out``, if it names one."""
    written = next((a for a in argv if a.startswith(str(out))), None)
    if written and os.path.exists(written):
        os.remove(written)
    code, stdout, stderr = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert stdout == "" and stderr.startswith("ERROR: ") and stderr.count("\n") == 1, (argv, stderr)
    else:
        assert stderr == "", (argv, stderr)
    if code == 1:
        assert any("FAILED" in line for line in stdout.splitlines()), (argv, stdout)
    if written and code == 0:
        assert os.path.exists(written), argv
    if written and os.path.exists(written):
        READERS[os.path.splitext(written)[1]](written)


@pytest.fixture(scope="module")
def fixed(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = {"dir": d}
    for key, text in (("g", GRAPH), ("m", MATRIX), ("c", COVERING), ("elt", ELEMENT), ("act", MEALY_ACTION)):
        paths[key] = d / key
        paths[key].write_text(text)
    return paths


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ops=mutations)
def test_mutated_inputs_exit_cleanly(fixed, case, ops):
    text, commands = CASES[case]
    f, out = fixed["dir"] / "mutated", fixed["dir"] / "out"
    f.write_text(mutate(text, ops))
    names = {"f": f, "g": fixed["g"], "elt": fixed["elt"], "act": fixed["act"], "out": out}
    for command in commands:
        check_run([arg.format(**names) for arg in command], out)


REAL_VALUES = ["1e308", "-1e308", "1e160", "1e-160", "5e-324", "0", "-0", "-1", "nan", "inf", "1e400"]
COMPLEX_VALUES = REAL_VALUES + ["1e308+1e308i", "-1e160i", "nani"]

# commands on the valid files with one flag value "{v}": the complex flags first, then the real ones
FLAG_COMMANDS = [
    ["graph-op", "scale", "--graph", "{g}", "--factor", "{v}", "--out", "{out}.wg"],
    ["graph-op", "add", "--graph", "{g}", "--factor", "{v}", "--out", "{out}.wg"],
    ["graph-op", "deficiency", "--graph", "{g}", "--lambda", "{v}", "--R", "10", "--out", "{out}.wg"],
    ["spectrum", "--graph", "{g}", "--check-lambda", "{v}"],
    ["spectrum", "--matrix", "{m}", "--check-lambda", "{v}"],
], [
    ["graph-op", "deficiency", "--graph", "{g}", "--lambda", "0.5", "--R", "{v}", "--out", "{out}.wg"],
    ["graph-op", "scale", "--graph", "{g}", "--factor", "2", "--tol", "{v}"],
    ["spectrum", "--graph", "{g}", "--check-lambda", "1", "--R", "{v}"],
    ["spectrum", "--matrix", "{m}", "--check-lambda", "1", "--tol", "{v}"],
    ["cover", "include", "--map", "{c}", "--R", "{v}"],
    ["cover", "include", "--map", "{c}", "--tol", "{v}"],
    ["orbital", "--action", "{act}", "--element", "{elt}", "--x", "000", "--y", "101", "--level", "3",
     "--tol", "{v}"],
]


@pytest.mark.parametrize("value", COMPLEX_VALUES)
def test_hostile_flag_values_exit_cleanly(fixed, value):
    out = fixed["dir"] / "out"
    names = {**fixed, "out": out, "v": value}
    complex_flags, real_flags = FLAG_COMMANDS
    for command in complex_flags + (real_flags if value in REAL_VALUES else []):
        check_run([arg.format(**names) for arg in command], out)
