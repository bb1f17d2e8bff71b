"""Computations made apart from wgraph, against which its reports are checked.

Nothing here imports wgraph: files are parsed by the small readers below,
matrices are assembled from the benchmark's own arc lists, transducer
actions are expanded from their tables, and membership is decided by the
smallest singular value.
"""

from __future__ import annotations

import numpy as np

from inputs import Graph


def parse_complex(token: str) -> complex:
    return complex(token.replace("i", "j"))


def _content_lines(text: str) -> list:
    return [s for s in (line.strip() for line in text.splitlines()) if s and not s.startswith("#")]


def _graph_block(lines: list, at: int) -> tuple:
    n = int(lines[at].split()[1])
    vertices = lines[at + 1 : at + 1 + n]
    at += 1 + n
    m = int(lines[at].split()[1])
    arcs, pairing = [], []
    for line in lines[at + 1 : at + 1 + m]:
        s, t, w, p = line.split()
        arcs.append((s, t, parse_complex(w)))
        pairing.append(int(p))
    return Graph(vertices, arcs, pairing), at + 1 + m


def read_wg(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        lines = _content_lines(fh.read())
    if lines[0] != "wgraph 1":
        raise ValueError(f"{path}: not a wgraph file")
    graph, end = _graph_block(lines, 1)
    if end != len(lines):
        raise ValueError(f"{path}: trailing content")
    return graph


def read_cov(path: str) -> tuple:
    """Returns (cover, base, vertex_map, arc_map)."""
    with open(path, encoding="utf-8") as fh:
        lines = _content_lines(fh.read())
    if lines[:2] != ["covering 1", "cover"]:
        raise ValueError(f"{path}: not a covering file")
    cover, at = _graph_block(lines, 2)
    if lines[at] != "base":
        raise ValueError(f"{path}: no base block")
    base, at = _graph_block(lines, at + 1)
    n = int(lines[at].split()[1])
    vertex_map = dict(line.split() for line in lines[at + 1 : at + 1 + n])
    at += 1 + n
    m = int(lines[at].split()[1])
    arc_map = [int(line.split()[1]) for line in lines[at + 1 : at + 1 + m]]
    return cover, base, vertex_map, arc_map


def read_report(text: str) -> tuple:
    """``KEY: value`` report -> (first value per key, all lines)."""
    fields = {}
    lines = text.splitlines()
    for line in lines:
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value
    return fields, lines


def report_spectrum(value: str) -> np.ndarray:
    return np.array([parse_complex(t) for t in value.split()], dtype=complex)


# ---------------------------------------------------------------- oracles


def eigenvalues(m: np.ndarray) -> np.ndarray:
    if np.array_equal(m, m.conj().T):
        return np.linalg.eigvalsh(m).astype(complex)
    return np.linalg.eigvals(m)


def spectra_mismatch(got: np.ndarray, want: np.ndarray, tol: float) -> str | None:
    """None when two eigenvalue lists have the same length and lie within
    ``tol`` of each other in both directions; otherwise why not."""
    if len(got) != len(want):
        return f"{len(got)} eigenvalues, expected {len(want)}"
    d = np.abs(got[:, None] - want[None, :])
    worst = max(d.min(axis=1).max(), d.min(axis=0).max())
    return None if worst <= tol else f"eigenvalues off by {worst:.3g} (tolerance {tol:.3g})"


def sigma_min(m: np.ndarray, lam: complex) -> float:
    """Smallest singular value of M - lam by SVD."""
    return float(np.linalg.svd(m - lam * np.eye(len(m)), compute_uv=False)[-1])


def transducer_perms(transitions: dict, level: int) -> dict:
    """Each non-identity state's permutation of the level-``level`` words,
    as index arrays over the words in lexicographic (= binary) order."""
    alphabet = sorted(next(iter(transitions.values())))
    words = [""]
    for _ in range(level):
        words = [w + ch for w in words for ch in alphabet]
    pos = {w: i for i, w in enumerate(words)}

    def image(state, word):
        out = []
        for ch in word:
            letter, state = transitions[state][ch]
            out.append(letter)
        return "".join(out)

    return {s: np.array([pos[image(s, w)] for w in words]) for s in transitions if s != "e"}


def schreier_matrix(transitions: dict, terms: dict, level: int) -> np.ndarray:
    """Operator of sum_g m(g) rho(g) on the level-``level`` words:
    M[g z, z] += m(g), words acting rightmost token first."""
    perms = transducer_perms(transitions, level)
    inverse = {s: np.argsort(p) for s, p in perms.items()}
    n = 2**level
    m = np.zeros((n, n), dtype=complex)
    for word, coeff in terms.items():
        img = np.arange(n)
        for token in reversed(word):
            img = (inverse[token[:-1]] if token.endswith("'") else perms[token])[img]
        np.add.at(m, (img, np.arange(n)), coeff)
    return m


def cycle_spectrum(n: int) -> np.ndarray:
    """Closed form for the n-cycle adjacency (the odometer's a + a')."""
    return 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n) + 0j
