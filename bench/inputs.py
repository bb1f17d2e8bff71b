"""Seeded benchmark inputs and the writers for the six wgraph file formats.

The writers follow the format description in the project README and share
no code with ``wgraph.fileio``; ``test_bench.py`` checks that every file
they write reads back through ``wgraph.read_*`` unchanged.  Each workload
generator draws everything from one ``numpy.random.Generator`` and fixes
every size, so two seeds differ only in topology, weights and roots, never
in the amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Graph:
    """Vertex names, ``(source, target, weight)`` arcs and a reversal pairing."""

    vertices: list
    arcs: list
    pairing: list

    def index(self) -> dict:
        """Canonical (sorted) vertex positions, the order wgraph materializes in."""
        return {v: i for i, v in enumerate(sorted(self.vertices))}

    def matrix(self) -> np.ndarray:
        """Dense operator: entry [u, w] sums the weights of the arcs u -> w."""
        pos = self.index()
        m = np.zeros((len(pos), len(pos)), dtype=complex)
        rows = [pos[s] for s, _, _ in self.arcs]
        cols = [pos[t] for _, t, _ in self.arcs]
        np.add.at(m, (rows, cols), [w for _, _, w in self.arcs])
        return m


def schur_bound(m: np.ndarray) -> float:
    """sqrt(max row abs-sum * max column abs-sum), which dominates the 2-norm."""
    a = np.abs(m)
    return float(np.sqrt(a.sum(axis=1).max() * a.sum(axis=0).max()))


# ---------------------------------------------------------------- writers


def fmt_complex(z) -> str:
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _write(path: str, lines: list):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _graph_lines(g: Graph) -> list:
    lines = [f"vertices {len(g.vertices)}", *g.vertices, f"arcs {len(g.arcs)}"]
    lines += [f"{s} {t} {fmt_complex(w)} {p}" for (s, t, w), p in zip(g.arcs, g.pairing)]
    return lines


def write_wg(path: str, g: Graph):
    _write(path, ["wgraph 1", *_graph_lines(g)])


def write_mat(path: str, m: np.ndarray):
    _write(path, ["matrix 1", f"dim {m.shape[0]}", *(" ".join(map(fmt_complex, row)) for row in m)])


def write_cov(path: str, cover: Graph, base: Graph, vertex_map: dict, arc_map: list):
    lines = ["covering 1", "cover", *_graph_lines(cover), "base", *_graph_lines(base)]
    lines += [f"vertex-map {len(vertex_map)}", *(f"{v} {b}" for v, b in vertex_map.items())]
    lines += [f"arc-map {len(arc_map)}", *(f"{k} {b}" for k, b in enumerate(arc_map))]
    _write(path, lines)


def write_volt(path: str, degree: int, perms: list):
    """``perms[k][i]`` is the 0-based sheet that sheet ``i`` of base arc ``k`` crosses to."""
    lines = ["voltage 1", f"degree {degree}", f"arcs {len(perms)}"]
    _write(path, lines + [" ".join(str(j + 1) for j in p) for p in perms])


def write_act(path: str, alphabet: tuple, transitions: dict):
    """A transducer action: ``transitions[state][letter] = (output, next_state)``."""
    lines = ["action 1", "kind mealy", "alphabet " + " ".join(alphabet), f"states {len(transitions)}"]
    for state, row in transitions.items():
        lines.append(f"state {state}")
        lines += [f"{ch} {row[ch][0]} {row[ch][1]}" for ch in alphabet]
    _write(path, lines)


def write_elt(path: str, terms: dict):
    """``terms`` maps a word (tuple of tokens, () for the identity) to its coefficient."""
    lines = ["element 1", f"terms {len(terms)}"]
    _write(path, lines + [f"{' '.join(w) or 'e'} {fmt_complex(c)}" for w, c in terms.items()])


# ------------------------------------------------------------- generators


def _weights(rng, n: int) -> np.ndarray:
    """Complex weights of modulus in [0.5, 1], so no arc is negligible."""
    return rng.uniform(0.5, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def _edge_graph(names: list, edges: list, fwd: np.ndarray, rev: np.ndarray, loops: dict) -> Graph:
    """Each edge (u, v) becomes the paired arcs u->v (weight fwd) and v->u (weight rev);
    each ``loops[v]`` becomes one self-paired loop."""
    arcs, pairing = [], []
    for (u, v), a, b in zip(edges, fwd, rev):
        k = len(arcs)
        arcs += [(u, v, complex(a)), (v, u, complex(b))]
        pairing += [k + 1, k]
    for v, w in loops.items():
        pairing.append(len(arcs))
        arcs.append((v, v, complex(w)))
    return Graph(list(names), arcs, pairing)


def _cycle_edges(rng, names: list, cycles: int) -> list:
    """Edges of ``cycles`` random Hamiltonian cycles: every vertex gets degree 2*cycles."""
    edges = []
    for _ in range(cycles):
        order = [names[i] for i in rng.permutation(len(names))]
        edges += list(zip(order, order[1:] + order[:1]))
    return edges


def cover_route_inputs(rng) -> tuple:
    """30-vertex non-Hermitian base with four loops, lifted through 8 sheets."""
    names = [f"b{i:02d}" for i in range(30)]
    edges = _cycle_edges(rng, names, 2)
    loop_at = rng.choice(30, size=4, replace=False)
    loops = {names[i]: w for i, w in zip(loop_at, _weights(rng, 4))}
    base = _edge_graph(names, edges, _weights(rng, len(edges)), _weights(rng, len(edges)), loops)
    degree = 8
    perms = [None] * len(base.arcs)
    for k, (s, t, _) in enumerate(base.arcs):
        if perms[k] is not None:
            continue
        if base.pairing[k] == k:  # a self-paired loop needs an involutive voltage
            p = np.arange(degree)
            swap = rng.permutation(degree)[: 2 * int(rng.integers(1, degree // 2 + 1))]
            p[swap[0::2]], p[swap[1::2]] = swap[1::2], swap[0::2]
        else:
            p = rng.permutation(degree)
            perms[base.pairing[k]] = [int(i) for i in np.argsort(p)]
        perms[k] = [int(i) for i in p]
    return base, degree, perms


def lift(base: Graph, degree: int, perms: list) -> tuple:
    """The voltage cover built straight from base arcs and sheet permutations.

    Returns the cover graph, its vertex map and its arc map, with cover
    vertex ``(v, i)`` named ``v@<i+1>`` as wgraph names it.
    """
    name = lambda v, i: f"{v}@{i + 1}"  # noqa: E731
    arcs, pairing, arc_map = [], [], []
    for k, (s, t, w) in enumerate(base.arcs):
        for i in range(degree):
            arcs.append((name(s, i), name(t, perms[k][i]), w))
            pairing.append(base.pairing[k] * degree + perms[k][i])
            arc_map.append(k)
    vertex_map = {name(v, i): v for v in base.vertices for i in range(degree)}
    return Graph(list(vertex_map), arcs, pairing), vertex_map, arc_map


GRIGORCHUK = {
    "a": {"0": ("1", "e"), "1": ("0", "e")},
    "b": {"0": ("0", "a"), "1": ("1", "c")},
    "c": {"0": ("0", "a"), "1": ("1", "d")},
    "d": {"0": ("0", "e"), "1": ("1", "b")},
    "e": {"0": ("0", "e"), "1": ("1", "e")},
}
ODOMETER = {
    "a": {"0": ("1", "e"), "1": ("0", "a")},
    "e": {"0": ("0", "e"), "1": ("1", "e")},
}
ORBITAL_CASES = (
    # name, transitions, element terms, level
    ("grigorchuk", GRIGORCHUK, {("a",): 1.0, ("b",): 1.0, ("c",): 1.0, ("d",): 1.0}, 6),
    ("odometer", ODOMETER, {("a",): 1.0, ("a'",): 1.0}, 5),
)


def orbital_roots(rng, level: int) -> tuple:
    """Two distinct level-``level`` binary words; both actions are transitive on them."""
    x, y = rng.choice(2**level, size=2, replace=False)
    return format(int(x), f"0{level}b"), format(int(y), f"0{level}b")


def hermitian_member(rng) -> tuple:
    """1024 vertices, bipartite 500 + 524 with Hermitian edge weights and a
    real loop ``c`` at every vertex.

    A bipartite operator has rank at most twice its smaller side, so ``c``
    is an exact eigenvalue of multiplicity at least 24: a member point.
    """
    names = [f"h{i:04d}" for i in rng.permutation(1024)]
    left, right = names[:500], names[500:]
    edges = []
    for _ in range(4):
        edges += list(zip(left, [right[j] for j in rng.permutation(524)[:500]]))
    w = _weights(rng, len(edges))
    c = float(rng.integers(-8, 9)) / 8
    return _edge_graph(names, edges, w, w.conj(), {v: c for v in names}), complex(c)


def nonhermitian_graph(rng) -> tuple:
    """768 vertices, three Hamiltonian cycles with independent arc weights.

    The test point has modulus 1.25 times the Schur bound, which dominates
    the 2-norm, so sigma_min(M - lam) >= 0.25 * bound: a sure non-member.
    """
    names = [f"n{i:03d}" for i in range(768)]
    edges = _cycle_edges(rng, names, 3)
    g = _edge_graph(names, edges, _weights(rng, len(edges)), _weights(rng, len(edges)), {})
    lam = 1.25 * schur_bound(g.matrix()) * np.exp(2j * np.pi * rng.uniform())
    return g, complex(lam)


def nonnormal_matrix(rng) -> tuple:
    """384x384 Gaussian-integer matrix whose rows all sum to ``c``.

    The all-ones vector is then an exact eigenvector for ``c``, and every
    entry is an integer, so ``c`` is an exact eigenvalue of the stored matrix.
    """
    n = 384
    m = rng.integers(-8, 9, (n, n)) + 1j * rng.integers(-8, 9, (n, n))
    c = complex(int(rng.integers(-20, 21)), int(rng.integers(-20, 21)))
    m[:, -1] += c - m.sum(axis=1)
    return m, c


def deficiency_graph_input(rng) -> tuple:
    """1500 vertices, six Hamiltonian cycles plus a loop at every vertex (19,500 arcs).

    Every vertex has in- and out-degree 13, so the left deficiency graph has
    exactly 1500 * 14**2 composed arcs plus 1500 loops for every seed.
    """
    names = [f"g{i:04d}" for i in range(1500)]
    edges = _cycle_edges(rng, names, 6)
    g = _edge_graph(names, edges, _weights(rng, len(edges)), _weights(rng, len(edges)),
                    dict(zip(names, _weights(rng, 1500))))
    lam = complex(0.5 * np.exp(2j * np.pi * rng.uniform()))
    return g, lam, 2.0 * schur_bound(g.matrix())
