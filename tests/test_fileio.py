import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ODOMETER_TRANSITIONS,
    odometer_action,
    random_graph,
    random_matrix,
    random_voltage_cover,
    reference_format_complex,
)

from wgraph import (
    ActionError,
    ActionSpec,
    CoveringMap,
    GraphStructureError,
    GroupAction,
    GroupAlgebraElement,
    ParseError,
    WeightedGraph,
    compose,
    format_complex,
    make_graph,
    parse_complex,
    read_action,
    read_covering,
    read_element,
    read_graph,
    read_matrix,
    read_voltages,
    verify_covering,
    write_action,
    write_covering,
    write_element,
    write_graph,
    write_matrix,
    write_voltages,
)
import wgraph.operator
from wgraph import fileio
from wgraph.cli import main

INF, NAN = float("inf"), float("nan")
# every pair of 0.0, -0.0, 1.5, NaN, inf and -inf as real and imaginary part
SPECIALS = [complex(re, im) for re in (0.0, -0.0, 1.5, NAN, INF, -INF) for im in (0.0, -0.0, 1.5, NAN, INF, -INF)]
# the signed zeros and 1.5 in both parts, which the writers write; they refuse the others
FINITE_SPECIALS = [z for z in SPECIALS if np.isfinite(z)]
NONFINITE_SPECIALS = [z for z in SPECIALS if not np.isfinite(z)]


def test_complex_formatting_examples():
    assert format_complex(1.5) == "1.5"
    assert format_complex(complex(0.0, -2.0)) == "0.0-2.0i"
    assert format_complex(0.5 + 0.25j) == "0.5+0.25i"
    assert parse_complex("1.5") == 1.5
    assert parse_complex("-2i") == -2j
    assert parse_complex("0.5+0.25i") == 0.5 + 0.25j
    assert parse_complex(" 3 ") == 3.0
    assert [format_complex(z) for z in SPECIALS] == [reference_format_complex(z) for z in SPECIALS]


@pytest.mark.parametrize("bad", ["", "abc", "1+2", "2*i", "nan", "inf+1i", "1+nani"])
def test_complex_rejections(bad):
    with pytest.raises(ValueError):
        parse_complex(bad)


@settings(max_examples=150, deadline=None)
@given(
    st.complex_numbers(allow_nan=False, allow_infinity=False, allow_subnormal=True)
)
def test_property_complex_round_trip_is_bit_exact(z):
    back = parse_complex(format_complex(z))
    assert back.real == z.real
    assert back.imag == z.imag or (z.imag == 0 and back.imag == 0)


def test_graph_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    for i in range(20):
        g = random_graph(rng)
        p = tmp_path / f"g{i}.wg"
        write_graph(g, p)
        assert read_graph(p) == g


def test_second_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(67)
    g = random_graph(rng)
    m = random_matrix(rng)
    base, cover, covering = random_voltage_cover(rng)
    elem = GroupAlgebraElement({("a", "b'"): 0.5 - 0.125j, (): 2.0, ("a",): 1e-3})
    spec = ActionSpec("perm", action=odometer_action(2))

    cases = [
        (g, write_graph, read_graph, "wg"),
        (m, write_matrix, read_matrix, "mat"),
        (covering, write_covering, read_covering, "cov"),
        (elem, write_element, read_element, "elt"),
        (spec, write_action, read_action, "act"),
    ]
    for obj, write, read, ext in cases:
        p1 = tmp_path / f"first.{ext}"
        p2 = tmp_path / f"second.{ext}"
        write(obj, p1)
        write(read(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    p1 = tmp_path / "first.volt"
    p2 = tmp_path / "second.volt"
    write_voltages(3, [(1, 2, 0), (0, 1, 2)], p1)
    degree, volts = read_voltages(p1)
    write_voltages(degree, volts, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_matrix_round_trip_exact(tmp_path):
    rng = np.random.default_rng(71)
    m = random_matrix(rng)
    p = tmp_path / "m.mat"
    write_matrix(m, p)
    assert np.array_equal(read_matrix(p), m)
    with pytest.raises(ValueError):
        write_matrix(np.zeros((2, 3)), tmp_path / "bad.mat")
    assert not (tmp_path / "bad.mat").exists()


def test_covering_round_trip_still_verifies(tmp_path):
    rng = np.random.default_rng(73)
    for i in range(5):
        base, cover, covering = random_voltage_cover(rng)
        p = tmp_path / f"c{i}.cov"
        write_covering(covering, p)
        back = read_covering(p)
        assert back == covering
        assert verify_covering(back) == []


def test_covering_with_an_unmapped_vertex_is_not_written(tmp_path):
    covering = random_voltage_cover(np.random.default_rng(74))[2]
    v = covering.cover.vertices[-1]
    missing = {u: b for u, b in covering.vertex_map.items() if u != v}
    extra = {**covering.vertex_map, "stray": covering.base.vertices[0]}  # the count would not match the lines
    for vertex_map in (missing, extra):
        with pytest.raises(GraphStructureError, match="^vertex map domain does not equal the cover vertex set$"):
            write_covering(CoveringMap(covering.cover, covering.base, vertex_map, covering.arc_map),
                           tmp_path / "c.cov")
        assert not (tmp_path / "c.cov").exists()


def _graph_block(g):
    arcs = (f"{a.source} {a.target} {reference_format_complex(a.weight)} {p}" for a, p in zip(g.arcs, g.pairing))
    return [f"vertices {len(g.vertices)}", *g.vertices, f"arcs {len(g.arcs)}", *arcs]


def test_writers_stream_the_same_bytes_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "_CHUNK", 3)
    rng = np.random.default_rng(89)
    g = random_graph(rng, n=8, max_pairs=8)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m.flat[:len(FINITE_SPECIALS)] = FINITE_SPECIALS
    covering = random_voltage_cover(rng)[2]
    vertex_map, arc_map = covering.vertex_map, covering.arc_map
    cases = [
        (g, write_graph, ["wgraph 1", *_graph_block(g)]),
        (m, write_matrix, ["matrix 1", "dim 8", *(" ".join(map(reference_format_complex, row)) for row in m)]),
        (covering, write_covering, [
            "covering 1", "cover", *_graph_block(covering.cover), "base", *_graph_block(covering.base),
            f"vertex-map {len(vertex_map)}", *(f"{v} {vertex_map[v]}" for v in covering.cover.vertices),
            f"arc-map {len(arc_map)}", *(f"{k} {b}" for k, b in enumerate(arc_map)),
        ]),
    ]
    assert len(g.arcs) > 6 and len(covering.cover.arcs) > 6
    for obj, write, lines in cases:
        p = tmp_path / "out"
        write(obj, p)
        assert p.read_bytes() == ("\n".join(lines) + "\n").encode()
    p.unlink()
    monkeypatch.setattr(wgraph.operator, "_BLOCK_ENTRIES", 16)  # checked two rows at a time
    for z in NONFINITE_SPECIALS:  # refused before the file opens
        bad = m.copy()
        bad[5, 6] = z
        with pytest.raises(ValueError, match=r"^matrix entry \(5, 6\) is the non-finite number "):
            write_matrix(bad, p)
        assert not p.exists()


def test_write_lines_writes_a_list_once(monkeypatch):
    written = []

    class Sink(io.StringIO):  # stops a writer that repeats its lines before it fills the disk
        def write(self, text):
            written.append(text)
            assert len(written) == 1, "the lines were written again"

    monkeypatch.setattr(fileio, "open", lambda *args, **kwargs: Sink(), raising=False)
    fileio._write_lines("ab.txt", ["a", "b"])
    assert written == ["a\nb\n"]


def test_graph_writer_memory_does_not_grow_with_the_arc_count(tmp_path):
    rng = np.random.default_rng(97)
    n, half = 1500, 150_000
    s, t = rng.integers(0, n, size=(2, half))
    g = WeightedGraph(
        tuple(f"v{i:04d}" for i in range(n)),
        np.stack([s, t], axis=1).ravel(),
        np.stack([t, s], axis=1).ravel(),
        rng.normal(size=2 * half) + 1j * rng.normal(size=2 * half),
        np.arange(2 * half) ^ 1,
    )
    p = tmp_path / "big.wg"
    tracemalloc.start()
    try:
        write_graph(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    with open(p, "rb") as fh:
        assert sum(1 for _ in fh) == 1 + 1 + n + 1 + 2 * half


def test_arc_weights_are_written_as_format_complex_writes_them(tmp_path):
    rng = np.random.default_rng(101)
    g = random_graph(rng, n=30)
    w = g.weight.copy()
    w[::3] = w[::3].real  # imaginary part +0.0
    w[1::5] = w[1::5].real - 0.0j  # imaginary part -0.0
    w[2::7] = -0.0
    signed = WeightedGraph(g.vertices, g.source, g.target, w, g.pair)
    real = WeightedGraph(g.vertices, g.source, g.target, rng.normal(size=len(w)) + 0j, g.pair)
    huge = make_graph(["a", "b", "c"], [("a", "b", 1e200), ("b", "a", -1e200j), ("b", "c", 1e200 + 1e200j),
                                        ("c", "b", -3.0), ("c", "c", 1e-300 - 2j)], [1, 0, 3, 2, 4])
    with np.errstate(over="ignore", invalid="ignore"):
        overflowed = compose(huge, huge)
    assert np.isinf(overflowed.weight.real).any() and np.isinf(overflowed.weight.imag).any()
    special = WeightedGraph(g.vertices, g.source, g.target, np.resize(np.array(FINITE_SPECIALS), len(w)), g.pair)
    p = tmp_path / "w.wg"
    for graph in (g, signed, real, special):
        write_graph(graph, p)
        assert p.read_text() == "\n".join(["wgraph 1", *_graph_block(graph)]) + "\n"
    p.unlink()
    # the writer refuses the first non-finite weight before the file opens
    refusals = [(overflowed, int(np.flatnonzero(~np.isfinite(overflowed.weight))[0]))]
    for z in NONFINITE_SPECIALS:
        weight = g.weight.copy()
        weight[-1] = z
        refusals.append((g.with_weights(weight), len(w) - 1))
    for graph, k in refusals:
        a = graph.arcs[k]
        with pytest.raises(ValueError) as e:
            write_graph(graph, p)
        assert str(e.value) == (f"the weight of arc {k} ({a.source} -> {a.target}) is the non-finite number "
                                f"'{format_complex(a.weight)}', which no reader accepts")
        assert not p.exists()


def test_matrix_writer_holds_about_one_write_of_rows(tmp_path):
    rng = np.random.default_rng(103)
    m = rng.normal(size=(1024, 1024)).astype(complex)  # tracing makes each string cost microseconds
    m[::4, ::4] += 1j * rng.normal(size=(256, 256))
    m[1, :len(FINITE_SPECIALS)] = FINITE_SPECIALS
    p = tmp_path / "big.mat"
    tracemalloc.start()
    try:
        write_matrix(m, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one write of rows is about 1 MiB (20 KB a row here); the whole file is 20 MB
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    rows = (" ".join(map(reference_format_complex, row)) for row in m.tolist())
    assert p.read_text() == "\n".join(["matrix 1", "dim 1024", *rows]) + "\n"


def test_voltage_round_trip_and_validation(tmp_path):
    p = tmp_path / "v.volt"
    write_voltages(4, [(3, 2, 1, 0), (1, 0, 3, 2)], p)
    assert read_voltages(p) == (4, ((3, 2, 1, 0), (1, 0, 3, 2)))
    write_voltages(2, [], p)  # a base with no arcs
    assert p.read_text() == "voltage 1\ndegree 2\narcs 0\n"
    assert read_voltages(p) == (2, ())

    bad = tmp_path / "bad.volt"
    bad.write_text("voltage 1\ndegree 3\narcs 1\n1 1 2\n")
    with pytest.raises(ParseError) as e:
        read_voltages(bad)
    assert e.value.line == 4 and "not a permutation" in e.value.message

    short = tmp_path / "short.volt"
    short.write_text("voltage 1\ndegree 3\narcs 1\n1 2\n")
    with pytest.raises(ParseError) as e:
        read_voltages(short)
    assert "expected 3 images" in e.value.message


def test_action_perm_round_trip(tmp_path):
    act = odometer_action(2)
    p = tmp_path / "a.act"
    write_action(ActionSpec("perm", action=act), p)
    spec = read_action(p)
    assert spec.kind == "perm"
    assert spec.realize() == act


def test_action_mealy_round_trip(tmp_path):
    spec = ActionSpec("mealy", transitions=ODOMETER_TRANSITIONS, alphabet=("0", "1"))
    p = tmp_path / "odo.act"
    write_action(spec, p)
    back = read_action(p)
    assert back.kind == "mealy"
    assert back.alphabet == ("0", "1")
    for level in (1, 3):
        assert back.realize(level) == odometer_action(level)
    with pytest.raises(ActionError):
        back.realize()  # a transducer needs a level


def test_action_file_validation(tmp_path):
    dangling = tmp_path / "dangling.act"
    dangling.write_text(
        "action 1\nkind mealy\nalphabet 0 1\nstates 1\nstate a\n0 1 zz\n1 0 a\n"
    )
    with pytest.raises(ParseError) as e:
        read_action(dangling)
    assert e.value.line == 6 and "unknown state 'zz'" in e.value.message

    notperm = tmp_path / "notperm.act"
    notperm.write_text("action 1\nkind perm\npoints 2\np\nq\ngenerators 1\na 1 1\n")
    with pytest.raises(ParseError) as e:
        read_action(notperm)
    assert e.value.line == 7 and "not a permutation" in e.value.message

    badkind = tmp_path / "badkind.act"
    badkind.write_text("action 1\nkind linear\n")
    with pytest.raises(ParseError) as e:
        read_action(badkind)
    assert e.value.line == 2


def test_element_round_trip_with_identity_word(tmp_path):
    elem = GroupAlgebraElement({(): -1.5, ("a",): 2j, ("b", "a'"): 0.25})
    p = tmp_path / "m.elt"
    write_element(elem, p)
    back = read_element(p)
    assert back == elem
    text = p.read_text()
    assert "e -1.5" in text


def test_element_file_validation(tmp_path):
    zero = tmp_path / "zero.elt"
    zero.write_text("element 1\nterms 2\na 1.0\na -1.0\n")
    with pytest.raises(ParseError) as e:
        read_element(zero)
    assert "zero" in e.value.message

    badword = tmp_path / "badword.elt"
    badword.write_text("element 1\nterms 1\na'' 1.0\n")
    with pytest.raises(ParseError) as e:
        read_element(badword)
    assert e.value.line == 3

    nocoeff = tmp_path / "nocoeff.elt"
    nocoeff.write_text("element 1\nterms 1\na\n")
    with pytest.raises(ParseError):
        read_element(nocoeff)


def _two_point_graph(a, b):
    return make_graph([a, b], [(a, b, 1.0), (b, a, 0.5j)], [1, 0])


def _loop_covering(cover_ids, base_id):
    """Two cover vertices over a one-vertex base with one self-paired loop."""
    x, y = cover_ids
    return CoveringMap(_two_point_graph(x, y), make_graph([base_id], [(base_id, base_id, 1.0)], [0]),
                       {x: base_id, y: base_id}, (0, 0))


def _non_finite_writes():
    """Per writer, a write of an object holding one non-finite number, and what the refusal
    names; ``.wg`` weights and ``.mat`` entries are refused in the byte tests above."""
    g = _two_point_graph("x", "y")
    base = make_graph(["v"], [("v", "v", 1.0)], [0])
    return {
        "cover": (lambda p: write_covering(CoveringMap(g.with_weights([1.0, complex(1.5, INF)]), base,
                                                       {"x": "v", "y": "v"}, (0, 0)), p),
                  "the weight of arc 1 (y -> x) is the non-finite number '1.5+infi'"),
        "base": (lambda p: write_covering(CoveringMap(g, base.with_weights([-INF]), {"x": "v", "y": "v"}, (0, 0)), p),
                 "the weight of arc 0 (v -> v) is the non-finite number '-inf'"),
        "element": (lambda p: write_element(GroupAlgebraElement({("a",): 1.0, ("b", "a'"): complex(INF, 1)}), p),
                    "the coefficient of \"b a'\" is the non-finite number 'inf+1.0i'"),
    }


@pytest.mark.parametrize("writer", ["cover", "base", "element"])
def test_writers_refuse_a_non_finite_number(tmp_path, writer):
    write, what = _non_finite_writes()[writer]
    p = tmp_path / "out"
    with pytest.raises(ValueError) as e:
        write(p)
    assert str(e.value) == f"{what}, which no reader accepts"
    assert not p.exists()


def _id_writers(token):
    """Per writer, the error a bad id raises, how it writes an object holding ``token`` at the
    start of one of its lines, and how it reads that object back."""
    swap = GroupAction(("p", "q"), {"a": (1, 0)})
    return {
        "graph": (GraphStructureError, lambda p: write_graph(_two_point_graph(token, "b"), p), read_graph),
        "cover-vertex": (GraphStructureError, lambda p: write_covering(_loop_covering((token, "b"), "v"), p),
                         read_covering),
        "base-vertex": (GraphStructureError, lambda p: write_covering(_loop_covering(("x", "y"), token), p),
                        read_covering),
        "point": (ActionError,
                  lambda p: write_action(ActionSpec("perm", action=GroupAction((token, "q"), swap.perms)), p),
                  read_action),
        "generator": (ActionError,
                      lambda p: write_action(ActionSpec("perm", action=GroupAction(swap.points, {token: (1, 0)})), p),
                      read_action),
        "word": (ActionError, lambda p: write_element(GroupAlgebraElement({(token, "b"): 1.0}), p), read_element),
    }


ID_WRITERS = list(_id_writers("a"))
WRITER_OF = {read_graph: write_graph, read_covering: write_covering, read_action: write_action,
             read_element: write_element}


@pytest.mark.parametrize("writer", ID_WRITERS)
def test_writers_refuse_a_token_that_would_begin_a_comment_line(tmp_path, writer):
    error, write, _ = _id_writers("#a")[writer]
    path = tmp_path / "out"
    with pytest.raises(error, match="'#a' starts with '#' and would be read back as a comment$"):
        write(path)
    assert not path.exists()


@pytest.mark.parametrize("writer", ID_WRITERS)
def test_a_hash_inside_a_token_round_trips(tmp_path, writer):
    _, write, read = _id_writers("a#1")[writer]
    first, second = tmp_path / "first", tmp_path / "second"
    write(first)
    WRITER_OF[read](read(first), second)
    assert "a#1" in first.read_text() and first.read_bytes() == second.read_bytes()


def test_mealy_writer_refuses_a_hash_letter(tmp_path):
    transitions = {"a": {"#": ("1", "e"), "1": ("#", "e")}, "e": {"#": ("#", "e"), "1": ("1", "e")}}
    path = tmp_path / "hash.act"
    with pytest.raises(ActionError, match="^alphabet letter '#' starts with '#'"):
        write_action(ActionSpec("mealy", transitions=transitions, alphabet=("#", "1")), path)
    assert not path.exists()


IDENTITY_ROW = {"0": ("0", "e"), "1": ("1", "e")}


def _mealy(rows):
    return ActionSpec("mealy", transitions={**rows, "e": IDENTITY_ROW}, alphabet=("0", "1"))


UNREADABLE_ACTIONS = {
    "spaced-state": (_mealy({"s t": {"0": ("1", "e"), "1": ("0", "s t")}}), "bad generator token 's t'"),
    "missing-transition": (_mealy({"a": {"0": ("1", "e")}}), "state 'a' must have one transition per letter"),
    "unknown-next-state": (_mealy({"a": {"0": ("1", "zz"), "1": ("0", "a")}}), "references unknown state 'zz'"),
    "not-a-permutation": (_mealy({"a": {"0": ("1", "e"), "1": ("1", "a")}}), "does not permute the alphabet"),
    "unknown-kind": (ActionSpec("foo"), "^expected kind 'perm' or 'mealy', got 'foo'$"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_ACTIONS))
def test_action_writer_refuses_a_spec_it_cannot_read_back(tmp_path, case):
    spec, message = UNREADABLE_ACTIONS[case]
    path = tmp_path / "bad.act"
    with pytest.raises(ActionError, match=message):
        write_action(spec, path)
    assert not path.exists()


@pytest.mark.parametrize("spec, field", [(ActionSpec("mealy"), "transitions"), (ActionSpec("perm"), "action")],
                         ids=["mealy", "perm"])
def test_action_writer_names_the_missing_field_of_a_spec(tmp_path, spec, field):
    path = tmp_path / "bare.act"
    with pytest.raises(ActionError, match=f"^a kind {spec.kind} action spec needs its '{field}' field$"):
        write_action(spec, path)
    assert not path.exists()


def test_voltage_writer_refuses_a_degree_that_is_not_an_int(tmp_path):
    path = tmp_path / "float.volt"
    with pytest.raises(ValueError, match="^degree must be an int, got 2.0$"):
        write_voltages(2.0, [(1, 0)], path)
    assert not path.exists()


@pytest.mark.parametrize("degree, voltages, message", [
    (0, [], "degree must be at least 1"),
    (2, [(1, 0), (0, 1, 2)], "voltage of arc 1 is not a permutation of 0..1"),
    (2, [(0, 0)], "voltage of arc 0 is not a permutation of 0..1"),
], ids=["zero-degree", "long-voltage", "repeated-sheet"])
def test_voltage_writer_refuses_what_read_voltages_rejects(tmp_path, degree, voltages, message):
    path = tmp_path / "bad.volt"
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_voltages(degree, voltages, path)
    assert not path.exists()


def test_comments_and_blank_lines_are_ignored(tmp_path):
    p = tmp_path / "commented.wg"
    p.write_text(
        "# a loop with weight 2\n\nwgraph 1\nvertices 1\n  v\n\narcs 1\n"
        "# the loop itself\nv v 2.0 0\n# trailing comment\n"
    )
    g = read_graph(p)
    assert g.vertices == ("v",)
    assert g.arcs[0].weight == 2.0


def test_parse_errors_carry_path_and_line(tmp_path):
    cases = [
        ("badheader.wg", "graph 1\nvertices 1\nv\narcs 0\n", read_graph, 1, "expected header"),
        ("badversion.wg", "wgraph 2\nvertices 1\nv\narcs 0\n", read_graph, 1, "version"),
        ("badcount.wg", "wgraph 1\nvertices x\n", read_graph, 2, "bad count"),
        ("zerodim.mat", "matrix 1\ndim 0\n", read_matrix, 2, "at least 1"),
        ("bigdim.mat", "matrix 1\ndim 2049\n", read_matrix, 2, "dim 2049 exceeds the dense cap 2048"),
        ("truncated.wg", "wgraph 1\nvertices 2\nv\n", read_graph, 4, "unexpected end"),
        ("badarc.wg", "wgraph 1\nvertices 1\nv\narcs 1\nv v nope 0\n", read_graph, 5, "bad complex"),
        ("badrow.mat", "matrix 1\ndim 2\n1 0\n1\n", read_matrix, 4, "expected 2"),
        ("trailing.mat", "matrix 1\ndim 1\n1\nextra\n", read_matrix, 4, "trailing content"),
    ]
    for name, text, reader, line, fragment in cases:
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ParseError) as e:
            reader(p)
        assert e.value.path == str(p)
        assert e.value.line == line, name
        assert fragment in e.value.message, name
        assert str(e.value).startswith(f"{p}:{line}:")


def test_line_shape_errors_quote_the_offending_line(tmp_path):
    loop = "vertices 1\nv\narcs 1\nv v 1.0 0\n"
    mealy = "action 1\nkind mealy\nalphabet 0 1\nstates 1\nstate a\n"
    cases = [
        ("arity.wg", "wgraph 1\nvertices 1\nv\narcs 1\n", "v v 1.0", read_graph,
         "arc line needs 'source target weight pair'"),
        ("vmap.cov", f"covering 1\ncover\n{loop}base\n{loop}vertex-map 1\n", "v", read_covering,
         "vertex-map entry needs 'cover base'"),
        ("amap.cov", f"covering 1\ncover\n{loop}base\n{loop}vertex-map 1\nv v\narc-map 1\n", "0 0 0",
         read_covering, "arc-map entry needs 'cover_arc base_arc'"),
        ("gen.act", "action 1\nkind perm\npoints 2\np\nq\ngenerators 1\n", "a 2", read_action,
         "generator line needs a name and 2 images"),
        ("trans.act", mealy, "0 1", read_action, "transition line needs 'input output next'"),
        ("letter.act", mealy, "0 x a", read_action,
         "transition letters must come from the alphabet"),
    ]
    for name, head, bad, reader, what in cases:
        p = tmp_path / name
        p.write_text(head + bad + "\n")
        with pytest.raises(ParseError) as e:
            reader(p)
        assert e.value.line == head.count("\n") + 1, name
        assert e.value.message == f"{what}, got {bad!r}", name


def test_graph_file_with_broken_pairing_reports_arcs_block(tmp_path):
    p = tmp_path / "badpair.wg"
    p.write_text("wgraph 1\nvertices 2\nu\nv\narcs 2\nu v 1 1\nv u 1 0\n# pairing ok\n")
    assert read_graph(p).pairing == (1, 0)
    q = tmp_path / "badpair2.wg"
    q.write_text("wgraph 1\nvertices 2\nu\nv\narcs 2\nu v 1 0\nv u 1 1\n")
    with pytest.raises(ParseError):
        read_graph(q)


def test_covering_arc_map_must_be_in_order(tmp_path):
    rng = np.random.default_rng(79)
    covering = random_voltage_cover(rng)[2]
    while len(covering.arc_map) < 2:
        covering = random_voltage_cover(rng)[2]
    p = tmp_path / "c.cov"
    write_covering(covering, p)
    lines = p.read_text().splitlines()
    idx = lines.index("arc-map " + str(len(covering.arc_map)))
    lines[idx + 1], lines[idx + 2] = lines[idx + 2], lines[idx + 1]
    q = tmp_path / "swapped.cov"
    q.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as e:
        read_covering(q)
    assert "in order" in e.value.message


def test_covering_duplicate_vertex_map_entry(tmp_path):
    rng = np.random.default_rng(83)
    covering = random_voltage_cover(rng)[2]
    while len(covering.vertex_map) < 2:
        covering = random_voltage_cover(rng)[2]
    p = tmp_path / "c.cov"
    write_covering(covering, p)
    lines = p.read_text().splitlines()
    idx = lines.index("vertex-map " + str(len(covering.vertex_map)))
    lines[idx + 2] = lines[idx + 1]
    q = tmp_path / "dup.cov"
    q.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as e:
        read_covering(q)
    assert "duplicate" in e.value.message


GOOD_BLOCK = ["vertices 2", "u", "v", "arcs 2", "u v 1.0 1", "v u -0.5+2i 0"]
GOOD_COVER_TAIL = ["base", *GOOD_BLOCK, "vertex-map 2", "u u", "v v", "arc-map 2", "0 0", "1 1"]

# a faulty graph block, the line of the fault within the block (1 = its 'vertices' line), the message
BLOCK_FAULTS = {
    "duplicate id": (["vertices 2", "u", "u", "arcs 0"], 4, "duplicate vertex ids: ['u']"),
    "unknown source": (["vertices 2", "u", "v", "arcs 2", "w v 1.0 1", "v u 1.0 0"], 4,
                       "arc 0: unknown source vertex 'w'"),
    "unknown target": (["vertices 2", "u", "v", "arcs 2", "u v 1.0 1", "v w 1.0 0"], 4,
                       "arc 1: unknown target vertex 'w'"),
    "pairing out of range": (["vertices 2", "u", "v", "arcs 2", "u v 1.0 2", "v u 1.0 0"], 4,
                             "pairing[0] = 2 is out of range"),
    "huge pairing": (["vertices 2", "u", "v", "arcs 2", f"u v 1.0 {10**29}", "v u 1.0 0"], 4,
                     f"pairing[0] = {10**29} is out of range"),
    "not an involution": (["vertices 2", "u", "v", "arcs 3", "u v 1.0 1", "v u 1.0 2", "u v 1.0 1"], 4,
                          "pairing is not an involution at arc 0"),
    "not reversing": (["vertices 2", "u", "v", "arcs 2", "u v 1.0 1", "u v 1.0 0"], 4,
                      "pairing[0] = 1 does not reverse the arc endpoints"),
    "bad weight": (["vertices 2", "u", "v", "arcs 2", "u v 1.0 1", "v u 1.0x 0"], 6, "bad complex number '1.0x'"),
    "nan weight": (["vertices 2", "u", "v", "arcs 2", "u v nan 1", "v u 1.0 0"], 5,
                   "non-finite complex number 'nan'"),
    "inf weight": (["vertices 2", "u", "v", "arcs 2", "u v inf 1", "v u 1.0 0"], 5, "bad complex number 'inf'"),
    "bad pairing index": (["vertices 2", "u", "v", "arcs 2", "u v 1.0 one", "v u 1.0 0"], 5,
                          "bad pairing index 'one'"),
    "arity": (["vertices 2", "u", "v", "arcs 2", "u v 1.0", "v u 1.0 0"], 5,
              "arc line needs 'source target weight pair', got 'u v 1.0'"),
    "multi-token id": (["vertices 2", "u", "v w"], 3, "vertex id must be a single token, got 'v w'"),
    "two faults": (["vertices 2", "u", "v", "arcs 2", "w v 1.0 1", "v u bad 0"], 6, "bad complex number 'bad'"),
}
# the lines before a graph block, the lines after it, the reader
CONTAINERS = {
    "wg": (["wgraph 1"], [], read_graph),
    "cov": (["covering 1", "cover"], GOOD_COVER_TAIL, read_covering),
}


def _read_error(reader, path):
    with pytest.raises(ParseError) as e:
        reader(path)
    assert e.value.path == str(path)
    return e.value.line, e.value.message


@pytest.mark.parametrize("ext", sorted(CONTAINERS))
@pytest.mark.parametrize("fault", sorted(BLOCK_FAULTS))
def test_graph_block_faults_name_their_line_and_message(tmp_path, ext, fault):
    head, tail, reader = CONTAINERS[ext]
    block, line, message = BLOCK_FAULTS[fault]
    p = tmp_path / f"bad.{ext}"
    p.write_text("\n".join([*head, *block, *tail]) + "\n")
    assert _read_error(reader, p) == (len(head) + line, message)


PERM_HEAD = ["action 1", "kind perm", "points 2", "p", "q"]
MEALY_HEAD = ["action 1", "kind mealy", "alphabet 0 1", "states 2"]
# a file, its reader, the line of the refusal and its message
READER_FAULTS = {
    "matrix bad entry": (["matrix 1", "dim 2", "1 0", "1 2x"], read_matrix, 4, "bad complex number '2x'"),
    "matrix nan entry": (["matrix 1", "dim 2", "0.5 nan", "1 0"], read_matrix, 3, "non-finite complex number 'nan'"),
    "count keyword": (["wgraph 1", "vertex 1", "v", "arcs 0"], read_graph, 2,
                      "expected 'vertices' <count>, got 'vertex 1'"),
    "no cover line": (["covering 1", *GOOD_BLOCK, *GOOD_COVER_TAIL], read_covering, 2,
                      "expected 'cover', got 'vertices 2'"),
    "no base line": (["covering 1", "cover", *GOOD_BLOCK, *GOOD_COVER_TAIL[len(GOOD_BLOCK) + 1:]], read_covering, 9,
                     "expected 'base', got 'vertex-map 2'"),
    "duplicate generator": ([*PERM_HEAD, "generators 2", "a 2 1", "a 1 2"], read_action, 8,
                            "duplicate generator 'a'"),
    "reserved generator": ([*PERM_HEAD, "generators 2", "a 2 1", "e 1 2"], read_action, 8,
                           "'e' is reserved for the identity word"),
    "duplicate point": (["action 1", "kind perm", "points 2", "p", "p", "generators 1", "a 2 1"], read_action, 5,
                        "duplicate point ids"),
    "reserved first generator": ([*PERM_HEAD, "generators 2", "e 2 1", "a 1 2"], read_action, 7,
                                 "'e' is reserved for the identity word"),
    "apostrophe generator": ([*PERM_HEAD, "generators 2", "a' 2 1", "b 1 2"], read_action, 7,
                             "generator name \"a'\" may not end with an apostrophe"),
    "bad generator token": ([*PERM_HEAD, "generators 2", "a'b 2 1", "b 1 2"], read_action, 7,
                            "bad generator token \"a'b\""),
    "bad alphabet line": (["action 1", "kind mealy", "alphabet"], read_action, 3,
                          "expected 'alphabet <letters...>', got 'alphabet'"),
    "repeated letter": (["action 1", "kind mealy", "alphabet 0 1 0"], read_action, 3,
                        "alphabet letters must be distinct single characters"),
    "long letter": (["action 1", "kind mealy", "alphabet 0 10"], read_action, 3,
                    "alphabet letters must be distinct single characters"),
    "bad state line": ([*MEALY_HEAD, "stat a"], read_action, 5, "expected 'state <name>', got 'stat a'"),
    "duplicate state": ([*MEALY_HEAD, "state a", "0 1 a", "1 0 a", "state a"], read_action, 8,
                        "duplicate state 'a'"),
    "duplicate transition": ([*MEALY_HEAD, "state a", "0 1 a", "0 0 a"], read_action, 7,
                             "duplicate transition for input '0'"),
}


@pytest.mark.parametrize("fault", sorted(READER_FAULTS))
def test_reader_faults_name_their_line_and_message(tmp_path, fault):
    lines, reader, line, message = READER_FAULTS[fault]
    p = tmp_path / "bad"
    p.write_text("\n".join(lines) + "\n")
    assert _read_error(reader, p) == (line, message)


@pytest.mark.parametrize("ext", sorted(CONTAINERS))
def test_trailing_content_is_refused_on_its_line(tmp_path, ext):
    head, tail, reader = CONTAINERS[ext]
    lines = [*head, *GOOD_BLOCK, *tail, "", "# after the end", "extra 1"]
    p = tmp_path / f"trailing.{ext}"
    p.write_text("\n".join(lines) + "\n")
    assert _read_error(reader, p) == (len(lines), "trailing content 'extra 1'")


@pytest.mark.parametrize("ext", sorted(CONTAINERS))
def test_end_of_file_is_one_past_the_trailing_blank_and_comment_lines(tmp_path, ext):
    head, _, reader = CONTAINERS[ext]
    lines = [*head, "vertices 2", "u", "", "# the second vertex is missing", "   "]
    p = tmp_path / f"short.{ext}"
    p.write_text("\n".join(lines) + "\n")
    assert _read_error(reader, p) == (len(lines) + 1, "unexpected end of file, wanted vertex id")


@pytest.mark.parametrize("ext", sorted(CONTAINERS))
@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_every_line_separator_reads_the_same_file(tmp_path, ext, sep):
    head, tail, reader = CONTAINERS[ext]
    lines = ["# a comment first", *head, "", *GOOD_BLOCK, *tail]
    p = tmp_path / f"lines.{ext}"
    p.write_text("\n".join(lines) + "\n")
    expected = reader(p)
    for text in (sep.join(lines) + sep, sep.join(lines), sep.join(lines) + sep + "  " + sep + "# end"):
        p.write_bytes(text.encode())
        assert reader(p) == expected, repr(text)
    bad = ["# a comment first", *head, "", *BLOCK_FAULTS["bad weight"][0], *tail]
    p.write_bytes(sep.join(bad).encode())
    assert _read_error(reader, p) == (len(head) + 2 + 6, "bad complex number '1.0x'")
    p.write_bytes(sep.join(lines[:-1] + [""] * 3).encode())  # ends with blank lines instead of the last
    assert _read_error(reader, p)[0] == len(lines) + 2


def test_end_of_file_counts_every_line_after_the_last_content(tmp_path):
    p = tmp_path / "short.wg"
    for text, line in [("", 1), ("wgraph 1", 2), ("wgraph 1\n", 2), ("wgraph 1\n\n", 3),
                       ("wgraph 1\nvertices 1\n#\n  \n\n", 6), ("wgraph 1\x0cvertices 1\x0c", 3)]:
        p.write_bytes(text.encode())
        assert _read_error(read_graph, p)[0] == line, repr(text)


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_kept_refusals_hold_no_open_file(tmp_path):
    files = []
    for fault in ("bad weight", "unknown source", "multi-token id"):
        for ext, (head, tail, _) in CONTAINERS.items():
            p = tmp_path / f"{fault.replace(' ', '-')}.{ext}"
            p.write_text("\n".join([*head, *BLOCK_FAULTS[fault][0], *tail]) + "\n")
            files.append((p, CONTAINERS[ext][2]))
    before = _open_descriptors()
    kept = []
    for _ in range(50 // len(files) + 1):
        for p, reader in files:
            try:
                reader(p)
            except ParseError as e:
                kept.append(e)
    assert len(kept) >= 50
    assert _open_descriptors() == before


def test_invalid_utf8_exits_two_naming_the_codec(tmp_path, capsys):
    p = tmp_path / "latin1.wg"
    p.write_bytes("wgraph 1\nvertices 1\nvé\narcs 0\n".encode("latin-1"))
    assert main(["spectrum", "--graph", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: 'utf-8' codec can't decode"), err


def test_graph_reader_memory_per_arc(tmp_path):
    rng = np.random.default_rng(107)
    n, half = 1000, 10_000
    s, t = rng.integers(0, n, size=(2, half))
    g = WeightedGraph(
        tuple(f"v{i:04d}" for i in range(n)),
        np.stack([s, t], axis=1).ravel(),
        np.stack([t, s], axis=1).ravel(),
        rng.normal(size=2 * half) + 1j * rng.normal(size=2 * half),
        np.arange(2 * half) ^ 1,
    )
    p = tmp_path / "big.wg"
    write_graph(g, p)
    tracemalloc.start()
    try:
        back = read_graph(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == g
    assert peak / (2 * half) < 250, f"{peak / (2 * half):.0f} B per arc"
