"""Plain-text file formats for graphs, coverings, actions and elements.

Every format starts with a ``<kind> <version>`` header line; blank lines
and ``#`` comments are allowed anywhere.  Complex numbers are written as
``a+bi`` with ``repr`` floats so values round-trip bit-exactly; arc and
matrix indices are 0-based, permutations are written in 1-based one-line
notation.  All malformed content raises :class:`ParseError` with the
offending line number.  Readers take lines from the open file as they parse,
split at every ``str.splitlines`` separator, and hold a graph block's arcs as
columns (about 160 traced bytes per arc at the peak); a ``UnicodeDecodeError``
gives its byte position from the start of the decoded chunk, not of the file.
Writers refuse what no reader would read back before the file opens, and write
through :func:`_write_lines`: about 1 MiB of text at a time, and while a file
that already holds bytes is truncated on a helper thread, up to about 8 MiB.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .core import WeightedGraph, make_graph
from .errors import ActionError, GraphStructureError, ParseError
from .operator import MAX_DENSE_DIM, _row_blocks

if TYPE_CHECKING:  # the readers and writers of these layers import them when they run
    from .covering import CoveringMap
    from .orbital import GroupAction, GroupAlgebraElement

__all__ = [
    "format_complex",
    "parse_complex",
    "read_graph",
    "write_graph",
    "read_matrix",
    "write_matrix",
    "read_covering",
    "write_covering",
    "read_voltages",
    "write_voltages",
    "ActionSpec",
    "read_action",
    "write_action",
    "read_element",
    "write_element",
]

_CHUNK = 2048  # arcs formatted at a time; the strings of one chunk are held at once
_WRITE_BYTES = 1 << 20  # about this many characters per write
_HOLD_BYTES = 8 * _WRITE_BYTES  # about the most formatted text held while a file with bytes opens


def format_complex(value) -> str:
    return _complex_strings(np.array([complex(value)]))[0]


def parse_complex(text: str) -> complex:
    """Parse ``1.5``, ``-2i``, ``0.5+0.25i`` and friends."""
    s = text.strip().replace("i", "j")
    try:
        z = complex(s)
    except ValueError:
        raise ValueError(f"bad complex number {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite complex number {text!r}")
    return z


class _Cursor:
    """Reader of the non-blank, non-comment lines of a file, each with its line number."""

    def __init__(self, path):
        self.path = str(path)
        self._lines = self._numbered()
        self.lineno = 0  # the line last read

    def _numbered(self):
        lineno = 0
        with open(self.path, "r", encoding="utf-8") as fh:  # numbered as ``splitlines`` of the whole text
            for lineno, line in enumerate(itertools.chain.from_iterable(map(str.splitlines, fh)), 1):
                line = line.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
        self._end = lineno + 1  # read once ``next`` has found no line left

    def fail(self, lineno: int, message: str):
        self._lines.close()  # a kept ParseError keeps this cursor, not its file
        raise ParseError(self.path, lineno, message)

    def next_line(self, what: str) -> tuple[int, str]:
        self.lineno, line = next(self._lines, None) or (self._end, None)
        if line is None:
            self.fail(self._end, f"unexpected end of file, wanted {what}")
        return self.lineno, line

    def expect_end(self):
        for lineno, line in self._lines:  # the first line left, if any
            self.fail(lineno, f"trailing content {line!r}")

    def ids(self, count: int, what: str) -> list[str]:
        """The next ``count`` lines, each one ``what`` id of a single token."""
        ids = []
        for _ in range(count):
            lineno, line = self.next_line(f"{what} id")
            if len(line.split()) != 1:
                self.fail(lineno, f"{what} id must be a single token, got {line!r}")
            ids.append(line)
        return ids

    def header(self, kind: str):
        lineno, line = self.next_line(f"{kind!r} header")
        parts = line.split()
        if len(parts) != 2 or parts[0] != kind:
            self.fail(lineno, f"expected header {kind!r} <version>, got {line!r}")
        if parts[1] != "1":
            self.fail(lineno, f"unsupported {kind} format version {parts[1]!r}")

    def count(self, keyword: str, minimum: int = 0) -> int:
        lineno, line = self.next_line(f"{keyword!r} count")
        parts = line.split()
        if len(parts) != 2 or parts[0] != keyword:
            self.fail(lineno, f"expected {keyword!r} <count>, got {line!r}")
        n = self.int_field(lineno, parts[1], "count")
        if n < minimum:
            self.fail(lineno, f"{keyword} count must be at least {minimum}")
        return n

    def arc_count(self, keyword: str, minimum: int = 0) -> int:
        """:meth:`count` of a count line held to the arc cap, refused at its line before anything
        past it is read."""
        from .operator import MAX_ARCS

        n = self.count(keyword, minimum)
        if n > MAX_ARCS:
            self.fail(self.lineno, f"{keyword} {n} exceeds the arc cap {MAX_ARCS}")
        return n

    def fields(self, what: str, count: int, shape: str) -> tuple[int, str, list[str]]:
        """Next line, split into exactly ``count`` fields; ``shape`` names them."""
        lineno, line = self.next_line(what)
        parts = line.split()
        if len(parts) != count:
            self.fail(lineno, f"{what} needs {shape}, got {line!r}")
        return lineno, line, parts

    def complex_field(self, lineno: int, token: str) -> complex:
        try:
            return parse_complex(token)
        except ValueError as e:
            self.fail(lineno, str(e))

    def int_field(self, lineno: int, token: str, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            self.fail(lineno, f"bad {what} {token!r}")


def _texts(lines):
    """``lines``, each followed by a newline, joined into texts of about ``_WRITE_BYTES``.

    The first text holds 16 lines; each later one holds at most twice as many lines as the
    one before, and about ``_WRITE_BYTES`` at the mean line length of the one before, so a
    text of long lines (matrix rows) stays near that size at no cost per line.
    """
    lines = iter(lines)  # islice of a list would restart at its first line on every chunk
    count = 16
    while chunk := list(itertools.islice(lines, count)):
        count = len(chunk)
        chunk.append("")  # the newline after the last line
        text = "\n".join(chunk)
        del chunk  # the lines are not held with the encoded copy that ``write`` makes
        yield text
        count = max(1, min(2 * count, count * _WRITE_BYTES // len(text)))


def _has_bytes(path) -> bool:
    """Whether ``path`` names a file or directory that holds bytes, which a truncating open
    frees; a path that names nothing, or that no open takes, gives ``False``."""
    try:
        return os.stat(path).st_size > 0
    except (OSError, ValueError):
        return False


def _write_lines(path: str, lines):
    """Write ``lines`` to ``path``, each followed by a newline, a text of :func:`_texts` at a time.

    Truncating a file that holds bytes can wait a tenth of a second or more with the GIL
    released, so such a file opens on a helper thread while this one formats.  Until the open
    returns, the formatted texts are held, up to about ``_HOLD_BYTES`` of them; then this
    thread waits for the open, writes what it holds and streams the rest.  Any other path
    opens here first, as the open of a new file can wait too, so writing a new file holds one
    text at a time.  An error of the open is raised as the open raised it, an error of the
    formatting closes the handle, and the helper is joined before the call returns.  Writers
    call it after every check that can refuse, so a refused write creates no file and
    truncates none.
    """
    opened = {}

    def open_file():
        try:
            opened["fh"] = open(path, "w", encoding="utf-8")
        except BaseException as e:  # raised again on the calling thread
            opened["error"] = e

    opener = None
    if _has_bytes(path):
        opener = threading.Thread(target=open_file)
        opener.start()
    else:
        open_file()
    texts = _texts(lines)
    held, size = collections.deque(), 0
    try:
        try:
            while not opened and size < _HOLD_BYTES and (text := next(texts, None)) is not None:
                held.append(text)
                size += len(text)
        finally:
            if opener is not None:
                opener.join()
    except BaseException:
        if "fh" in opened:
            opened["fh"].close()
        raise
    if "error" in opened:
        raise opened.pop("error")  # popped, so no cycle keeps the helper's frame
    with opened["fh"] as fh:
        while held:
            fh.write(held.popleft())  # each text is freed once it is written
        for text in texts:
            fh.write(text)


def _read_graph_block(cur: _Cursor) -> WeightedGraph:
    vertices = cur.ids(cur.arc_count("vertices", minimum=1), "vertex")
    known = dict(zip(vertices, vertices))  # each endpoint is held as the vertex string already read
    m = cur.arc_count("arcs")
    start = cur.lineno
    sources, targets, weights, pairing = [], [], [], []
    for _ in range(m):
        lineno, _, (src, tgt, wtok, ptok) = cur.fields("arc line", 4, "'source target weight pair'")
        sources.append(known.get(src, src))
        targets.append(known.get(tgt, tgt))
        weights.append(cur.complex_field(lineno, wtok))
        pairing.append(cur.int_field(lineno, ptok, "pairing index"))
    try:
        return make_graph(vertices, zip(sources, targets, weights), pairing)
    except (GraphStructureError, ValueError) as e:
        cur.fail(start, str(e))


def _check_line_starts(tokens, what: str, error):
    """Refuse a token that would begin a written line with ``#``, which every reader skips as a
    comment.  Writers call it before the file opens."""
    for token in tokens:
        if token.startswith("#"):
            raise error(f"{what} {token!r} starts with '#' and would be read back as a comment")


def _complex_strings(values: np.ndarray) -> list[str]:
    """``a+bi`` text of each entry of a 1-D complex array, one ``repr`` pass per part."""
    out = list(map(repr, values.real.tolist()))
    imag = values.imag
    tail = np.flatnonzero(imag != 0)  # a NaN imaginary part is written too, with a '-'
    signs = np.where(imag[tail] >= 0, "+", "-").tolist()
    for k, sign, size in zip(tail.tolist(), signs, map(repr, np.abs(imag[tail]).tolist())):
        out[k] = f"{out[k]}{sign}{size}i"
    return out


def _check_finite(values: np.ndarray, what):
    """Refuse the first non-finite entry of ``values``, as the readers would; ``what(*index)``
    names the entry at ``index``.  Writers call it before the file opens."""
    finite = np.isfinite(values)
    if not finite.all():
        index = np.unravel_index(np.argmin(finite), finite.shape)
        raise ValueError(f"{what(*index)} is the non-finite number {format_complex(values[index])!r}, "
                         "which no reader accepts")


def _graph_block_lines(graph: WeightedGraph):
    """Lines of a graph block; reads every attribute and checks the vertex ids and weights now,
    formats the arcs a chunk at a time."""
    names = graph.vertices
    _check_line_starts(names, "vertex id", GraphStructureError)
    _check_finite(graph.weight, lambda k: (
        f"the weight of arc {k} ({names[graph.source[k]]} -> {names[graph.target[k]]})"))
    arcs = (
        f"{names[s]} {names[t]} {w} {p}"
        for i in range(0, len(graph.weight), _CHUNK)
        for s, t, w, p in zip(graph.source[i:i + _CHUNK].tolist(), graph.target[i:i + _CHUNK].tolist(),
                              _complex_strings(graph.weight[i:i + _CHUNK]), graph.pair[i:i + _CHUNK].tolist())
    )
    return itertools.chain([f"vertices {len(names)}", *names, f"arcs {len(graph.weight)}"], arcs)


def read_graph(path: str) -> WeightedGraph:
    cur = _Cursor(path)
    cur.header("wgraph")
    graph = _read_graph_block(cur)
    cur.expect_end()
    return graph


def write_graph(graph: WeightedGraph, path: str):
    _write_lines(path, itertools.chain(["wgraph 1"], _graph_block_lines(graph)))


def read_matrix(path: str) -> np.ndarray:
    cur = _Cursor(path)
    cur.header("matrix")
    n = cur.count("dim", minimum=1)
    if n > MAX_DENSE_DIM:
        cur.fail(cur.lineno, f"dim {n} exceeds the dense cap {MAX_DENSE_DIM}")
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        lineno, line = cur.next_line("matrix row")
        parts = line.replace("i", "j").split()
        if len(parts) != n:
            cur.fail(lineno, f"row {i} has {len(parts)} entries, expected {n}")
        try:
            out[i] = list(map(complex, parts))  # parse_complex of each, one row at a time
            ok = np.isfinite(out[i]).all()
        except ValueError:
            ok = False
        if not ok:  # parse_complex names the first bad or non-finite entry
            out[i] = [cur.complex_field(lineno, tok) for tok in line.split()]
    cur.expect_end()
    return out


def write_matrix(matrix: np.ndarray, path: str):
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n < 1:  # the bounds of read_matrix's dim line
        raise ValueError("matrix dim 0 is below 1, the least dim that read_matrix accepts")
    if n > MAX_DENSE_DIM:
        raise ValueError(f"matrix dim {n} exceeds the dense cap {MAX_DENSE_DIM} that read_matrix holds to")
    for block in _row_blocks(m):
        _check_finite(m[block], lambda i, j: f"matrix entry ({block.start + i}, {j})")
    rows = (" ".join(_complex_strings(row)) for row in m)
    _write_lines(path, itertools.chain(["matrix 1", f"dim {n}"], rows))


def read_covering(path: str) -> CoveringMap:
    from .covering import CoveringMap

    cur = _Cursor(path)
    cur.header("covering")
    lineno, line = cur.next_line("'cover' section")
    if line != "cover":
        cur.fail(lineno, f"expected 'cover', got {line!r}")
    cover = _read_graph_block(cur)
    lineno, line = cur.next_line("'base' section")
    if line != "base":
        cur.fail(lineno, f"expected 'base', got {line!r}")
    base = _read_graph_block(cur)
    n = cur.arc_count("vertex-map")
    vertex_map = {}
    for _ in range(n):
        lineno, _, (v, b) = cur.fields("vertex-map entry", 2, "'cover base'")
        if v in vertex_map:
            cur.fail(lineno, f"duplicate vertex-map entry for {v!r}")
        vertex_map[v] = b
    m = cur.arc_count("arc-map")
    arc_map = []
    for _ in range(m):
        lineno, _, (ktok, btok) = cur.fields("arc-map entry", 2, "'cover_arc base_arc'")
        k = cur.int_field(lineno, ktok, "cover arc index")
        if k != len(arc_map):
            cur.fail(lineno, f"arc-map entries must list cover arcs 0,1,... in order; got {k}")
        arc_map.append(cur.int_field(lineno, btok, "base arc index"))
    cur.expect_end()
    return CoveringMap(cover, base, vertex_map, tuple(arc_map))


def write_covering(covering: CoveringMap, path: str):
    cover = covering.cover.vertices
    if covering.vertex_map.keys() != set(cover):
        raise GraphStructureError("vertex map domain does not equal the cover vertex set")
    images = [covering.vertex_map[v] for v in cover]
    _write_lines(path, itertools.chain(
        ["covering 1", "cover"], _graph_block_lines(covering.cover),
        ["base"], _graph_block_lines(covering.base),
        [f"vertex-map {len(cover)}"], (f"{v} {b}" for v, b in zip(cover, images)),
        [f"arc-map {len(covering.arc_map)}"], (f"{k} {b}" for k, b in enumerate(covering.arc_map)),
    ))


def read_voltages(path: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Read a voltage assignment: per base arc one permutation of 1..degree.

    Returns ``(degree, voltages)`` with 0-based image tuples, i.e.
    ``voltages[k][i]`` is the sheet (0-based) that sheet ``i`` of arc ``k``
    crosses to.
    """
    cur = _Cursor(path)
    cur.header("voltage")
    degree = cur.count("degree", minimum=1)
    m = cur.arc_count("arcs")
    volts = []
    for k in range(m):
        lineno, line = cur.next_line("voltage permutation")
        parts = line.split()
        if len(parts) != degree:
            cur.fail(lineno, f"arc {k}: expected {degree} images, got {len(parts)}")
        perm = tuple(cur.int_field(lineno, t, "sheet image") - 1 for t in parts)
        if sorted(perm) != list(range(degree)):
            cur.fail(lineno, f"arc {k}: not a permutation of 1..{degree}")
        volts.append(perm)
    cur.expect_end()
    return degree, tuple(volts)


def write_voltages(degree: int, voltages, path: str):
    from .covering import _check_degree, _check_voltages

    degree = _check_degree(degree)
    _check_voltages(degree, voltages)
    lines = ["voltage 1", f"degree {degree}", f"arcs {len(voltages)}"]
    for perm in voltages:
        lines.append(" ".join(str(i + 1) for i in perm))
    _write_lines(path, lines)


@dataclass(frozen=True)
class ActionSpec:
    """Parsed action file: an explicit permutation action or a transducer.

    ``kind`` is ``"perm"`` or ``"mealy"``.  :meth:`realize` produces the
    :class:`GroupAction`; transducer specs need the expansion ``level``.
    """

    kind: str
    action: GroupAction | None = None
    transitions: dict | None = field(default=None, hash=False)
    alphabet: tuple | None = None

    def realize(self, level: int | None = None) -> GroupAction:
        if self.kind == "perm":
            return self.action
        if level is None:
            raise ActionError("a transducer action needs an expansion level")
        from .orbital import GroupAction

        return GroupAction.from_mealy(self.transitions, self.alphabet, level)


def read_action(path: str) -> ActionSpec:
    cur = _Cursor(path)
    cur.header("action")
    lineno, line = cur.next_line("'kind' line")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "kind" or parts[1] not in ("perm", "mealy"):
        cur.fail(lineno, f"expected 'kind perm' or 'kind mealy', got {line!r}")
    kind = parts[1]
    if kind == "perm":
        from .orbital import GroupAction, _check_generator_name

        n = cur.count("points", minimum=1)
        points = {}  # an ordered set of the point ids
        for _ in range(n):
            (point,) = cur.ids(1, "point")
            if point in points:
                cur.fail(cur.lineno, "duplicate point ids")
            points[point] = None
        g = cur.count("generators", minimum=1)
        perms = {}
        for _ in range(g):
            lineno, _, parts = cur.fields("generator line", n + 1, f"a name and {n} images")
            name = parts[0]
            if name in perms:
                cur.fail(lineno, f"duplicate generator {name!r}")
            try:
                _check_generator_name(name)
            except ActionError as e:
                cur.fail(lineno, str(e))
            images = tuple(cur.int_field(lineno, t, "point image") - 1 for t in parts[1:])
            if sorted(images) != list(range(n)):
                cur.fail(lineno, f"generator {name!r} is not a permutation of 1..{n}")
            perms[name] = images
        cur.expect_end()
        # every refusal of GroupAction has been made above, on the line at fault
        return ActionSpec("perm", action=GroupAction(tuple(points), perms))
    lineno, line = cur.next_line("'alphabet' line")
    parts = line.split()
    if len(parts) < 2 or parts[0] != "alphabet":
        cur.fail(lineno, f"expected 'alphabet <letters...>', got {line!r}")
    alphabet = tuple(parts[1:])
    if any(len(ch) != 1 for ch in alphabet) or len(set(alphabet)) != len(alphabet):
        cur.fail(lineno, "alphabet letters must be distinct single characters")
    s = cur.count("states", minimum=1)
    transitions: dict = {}
    targets = []  # (line, state, next state) of every transition, in file order
    for _ in range(s):
        lineno, line = cur.next_line("'state' line")
        parts = line.split()
        if len(parts) != 2 or parts[0] != "state":
            cur.fail(lineno, f"expected 'state <name>', got {line!r}")
        name = parts[1]
        if name in transitions:
            cur.fail(lineno, f"duplicate state {name!r}")
        row = {}
        for _ in alphabet:
            lineno, line, (inp, out, nxt) = cur.fields("transition line", 3, "'input output next'")
            if inp not in alphabet or out not in alphabet:
                cur.fail(lineno, f"transition letters must come from the alphabet, got {line!r}")
            if inp in row:
                cur.fail(lineno, f"duplicate transition for input {inp!r}")
            row[inp] = (out, nxt)
            targets.append((lineno, name, nxt))
        transitions[name] = row
    cur.expect_end()
    for lineno, name, nxt in targets:
        if nxt not in transitions:
            cur.fail(lineno, f"state {name!r} references unknown state {nxt!r}")
    return ActionSpec("mealy", transitions=transitions, alphabet=alphabet)


def write_action(spec: ActionSpec, path: str):
    if spec.kind not in ("perm", "mealy"):
        raise ActionError(f"expected kind 'perm' or 'mealy', got {spec.kind!r}")
    for field in ("action",) if spec.kind == "perm" else ("transitions", "alphabet"):
        if getattr(spec, field) is None:
            raise ActionError(f"a kind {spec.kind} action spec needs its {field!r} field")
    lines = ["action 1", f"kind {spec.kind}"]
    if spec.kind == "perm":
        act = spec.action
        lines.append(f"points {len(act.points)}")
        lines.extend(act.points)
        names = act.generator_names()
        _check_line_starts(act.points, "point id", ActionError)
        _check_line_starts(names, "generator name", ActionError)
        lines.append(f"generators {len(names)}")
        for name in names:
            lines.append(name + " " + " ".join(str(i + 1) for i in act.perms[name]))
    else:
        # the level-1 expansion refuses what read_action or realize would: a state name that is
        # no generator token, a missing transition, an unknown next state, a row that does not
        # permute the alphabet
        spec.realize(1)
        _check_line_starts(spec.alphabet, "alphabet letter", ActionError)
        lines.append("alphabet " + " ".join(spec.alphabet))
        lines.append(f"states {len(spec.transitions)}")
        for name in sorted(spec.transitions):
            lines.append(f"state {name}")
            for ch in spec.alphabet:
                out, nxt = spec.transitions[name][ch]
                lines.append(f"{ch} {out} {nxt}")
    _write_lines(path, lines)


def read_element(path: str) -> GroupAlgebraElement:
    from .orbital import GroupAlgebraElement, parse_word

    cur = _Cursor(path)
    cur.header("element")
    n = cur.count("terms", minimum=1)
    pairs = []
    for _ in range(n):
        lineno, line = cur.next_line("term line")
        parts = line.split()
        if len(parts) < 2:
            cur.fail(lineno, f"term line needs a word and a coefficient, got {line!r}")
        try:
            word = parse_word(" ".join(parts[:-1]))
        except ActionError as e:
            cur.fail(lineno, str(e))
        pairs.append((word, cur.complex_field(lineno, parts[-1])))
    cur.expect_end()
    elem = GroupAlgebraElement.from_pairs(pairs)
    if not elem:
        raise ParseError(str(path), 1, "element is zero after combining terms")
    return elem


def write_element(element: GroupAlgebraElement, path: str):
    from .orbital import word_str

    words = element.support()
    _check_line_starts((w[0] for w in words if w), "word token", ActionError)
    coefficients = np.array([element.terms[w] for w in words], dtype=complex)
    _check_finite(coefficients, lambda k: f"the coefficient of {word_str(words[k])!r}")
    lines = ["element 1", f"terms {len(words)}"]
    for w in words:
        lines.append(f"{word_str(w)} {format_complex(element.terms[w])}")
    _write_lines(path, lines)
