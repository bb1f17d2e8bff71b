"""Weighted multigraphs and their operation algebra.

A graph keeps an ordered vertex set and a list of directed arcs, each
carrying a complex weight.  Arcs come in reversal pairs recorded by an
involution on arc indices: an undirected edge is the orbit {a, pairing(a)},
and a loop may be its own reverse.  Each operation below acts on the
associated vertex-space operator (see :func:`wgraph.operator.materialize`)
exactly the way its name suggests: ``scale`` multiplies it by a scalar,
``add_scalar`` adds a multiple of the identity, ``adjoint`` conjugate
transposes it, and ``compose`` multiplies two of them.

The arcs are stored as parallel numpy arrays (source and target positions
in the sorted vertex tuple, complex weights, reversal pairing), so every
operation is a few array expressions.  Complex products are formed from
their real parts exactly as Python's ``complex * complex`` does, so weights
agree bit for bit with arc-by-arc arithmetic.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from .errors import DimensionCapError, GraphStructureError

__all__ = [
    "Arc",
    "ArcView",
    "WeightedGraph",
    "make_graph",
    "scale",
    "add_scalar",
    "adjoint",
    "compose",
    "deficiency_graph",
]


@dataclass(frozen=True)
class Arc:
    """Directed arc with a complex weight."""

    source: str
    target: str
    weight: complex


def _frozen(values, dtype) -> np.ndarray:
    # a read-only view, so an array passed in keeps its own flags and is not copied
    out = np.asarray(values, dtype=dtype).view()
    out.setflags(write=False)
    return out


def _cmul(a, b) -> np.ndarray:
    """Elementwise ``a * b`` rounded like Python's complex product.

    numpy's vectorized complex multiply may round the last bit differently
    from ``complex.__mul__``; the real form below repeats Python's formula.
    """
    ar, ai = np.real(a), np.imag(a)
    br, bi = np.real(b), np.imag(b)
    out = np.empty(np.broadcast(ar, br).shape, dtype=complex)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


class ArcView(Sequence):
    """Read-only sequence of :class:`Arc` values over a graph's arc arrays."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "WeightedGraph"):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.weight)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        g = self._graph
        return Arc(g.vertices[g.source[k]], g.vertices[g.target[k]], complex(g.weight[k]))

    def __iter__(self):
        g = self._graph
        names = g.vertices
        for s, t, w in zip(g.source.tolist(), g.target.tolist(), g.weight.tolist()):
            yield Arc(names[s], names[t], w)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Immutable weighted multigraph with an arc-reversal pairing.

    ``vertices`` is the canonical (lexicographic) vertex order used for
    materialization and serialization.  Arc ``i`` runs from
    ``vertices[source[i]]`` to ``vertices[target[i]]`` with weight
    ``weight[i]``; ``pair[i]`` is the index of its reversal, so
    ``pair[pair[i]] == i`` and the reversal swaps the endpoints (a
    self-paired arc is a loop).  The arrays are read-only.  ``arcs`` and
    ``pairing`` show the same data as a sequence of :class:`Arc` and a
    tuple of ints.
    """

    vertices: tuple[str, ...]
    source: np.ndarray
    target: np.ndarray
    weight: np.ndarray
    pair: np.ndarray

    def __post_init__(self):
        for name, dtype in (("source", np.int32), ("target", np.int32),
                            ("weight", complex), ("pair", np.int32)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.vertices == other.vertices and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("source", "target", "weight", "pair")
        )

    def __hash__(self) -> int:
        return hash((self.vertices, len(self.weight)))

    @property
    def arcs(self) -> ArcView:
        return ArcView(self)

    @cached_property
    def pairing(self) -> tuple[int, ...]:
        return tuple(self.pair.tolist())

    @cached_property
    def _vertex_pos(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _out_degree(self) -> np.ndarray:
        return np.bincount(self.source, minlength=len(self.vertices))

    def with_weights(self, weight) -> "WeightedGraph":
        """The same arcs and pairing carrying new weights."""
        return WeightedGraph(self.vertices, self.source, self.target, weight, self.pair)

    def vertex_index(self, vertex: str) -> int:
        try:
            return self._vertex_pos[vertex]
        except KeyError:
            raise GraphStructureError(f"unknown vertex {vertex!r}") from None

    @property
    def order(self) -> int:
        return len(self.vertices)


def _check_pairing(source: np.ndarray, target: np.ndarray, pairing: list[int]):
    """Raise for the first arc whose pairing entry is out of range, not an
    involution, or does not reverse the arc's endpoints."""
    m = len(source)
    pair = np.array([j if 0 <= j < m else -1 for j in pairing], dtype=np.int64)
    out_of_range = pair < 0
    p = np.where(out_of_range, 0, pair)
    not_involution = ~out_of_range & (pair[p] != np.arange(m))
    not_reversed = (source[p] != target) | (target[p] != source)
    bad = np.flatnonzero(out_of_range | not_involution | not_reversed)
    if bad.size:
        i = int(bad[0])
        if out_of_range[i]:
            raise GraphStructureError(f"pairing[{i}] = {pairing[i]} is out of range")
        if not_involution[i]:
            raise GraphStructureError(f"pairing is not an involution at arc {i}")
        raise GraphStructureError(f"pairing[{i}] = {pairing[i]} does not reverse the arc endpoints")


def make_graph(vertices: Iterable[str], arcs, pairing) -> WeightedGraph:
    """Validate and build a weighted graph.

    ``arcs`` may hold :class:`Arc` values or ``(source, target, weight)``
    triples.  ``pairing`` must be an involution on arc indices whose image
    arc has swapped endpoints; a loop may be paired with itself (one arc of
    multiplicity one) or with a second, distinct loop arc.
    """
    verts = [str(v) for v in vertices]
    if not verts:
        raise GraphStructureError("a graph needs at least one vertex")
    for v in verts:
        if not v or any(ch.isspace() for ch in v):
            raise GraphStructureError(f"vertex id {v!r} is empty or contains whitespace")
    if len(set(verts)) != len(verts):
        dup = sorted(v for v, c in Counter(verts).items() if c > 1)
        raise GraphStructureError(f"duplicate vertex ids: {dup}")
    vt = tuple(sorted(verts))
    pos = {v: i for i, v in enumerate(vt)}

    source, target, weight = [], [], []
    for k, a in enumerate(arcs):
        if isinstance(a, Arc):
            s, t, w = a.source, a.target, complex(a.weight)
        else:
            s, t, w = a
            s, t, w = str(s), str(t), complex(w)
        if s not in pos:
            raise GraphStructureError(f"arc {k}: unknown source vertex {s!r}")
        if t not in pos:
            raise GraphStructureError(f"arc {k}: unknown target vertex {t!r}")
        source.append(pos[s])
        target.append(pos[t])
        weight.append(w)

    pr = [int(p) for p in pairing]
    if len(pr) != len(weight):
        raise GraphStructureError(
            f"pairing length {len(pr)} does not match arc count {len(weight)}"
        )
    source = np.array(source, dtype=np.int32)
    target = np.array(target, dtype=np.int32)
    _check_pairing(source, target, pr)
    return WeightedGraph(vt, source, target, np.array(weight, dtype=complex), pr)


def scale(graph: WeightedGraph, factor) -> WeightedGraph:
    """Multiply every arc weight by ``factor``; arcs and pairing are unchanged."""
    return graph.with_weights(_cmul(complex(factor), graph.weight))


def add_scalar(graph: WeightedGraph, shift) -> WeightedGraph:
    """Append a self-paired loop of weight ``shift`` at every vertex.

    The loops are appended after the existing arcs in canonical vertex
    order, so the operator gains ``shift`` times the identity.
    """
    loops = np.arange(len(graph.vertices))
    return WeightedGraph(
        graph.vertices,
        np.concatenate([graph.source, loops]),
        np.concatenate([graph.target, loops]),
        np.concatenate([graph.weight, np.full(len(loops), complex(shift))]),
        np.concatenate([graph.pair, len(graph.weight) + loops]),
    )


def adjoint(graph: WeightedGraph) -> WeightedGraph:
    """Conjugate each weight and move it across the reversal pairing.

    The new weight of arc ``a`` is the conjugate of the old weight of
    ``pairing(a)``; this conjugate-transposes the associated operator and
    is involutive.
    """
    return graph.with_weights(np.conj(graph.weight[graph.pair]))


def _same_skeleton(graph: WeightedGraph, other: WeightedGraph) -> bool:
    return (
        np.array_equal(graph.pair, other.pair)
        and np.array_equal(graph.source, other.source)
        and np.array_equal(graph.target, other.target)
    )


def _complete_pairing(source: np.ndarray, target: np.ndarray):
    """Build an involutive reversal pairing for arbitrary arcs.

    Loops are self-paired.  Between two distinct vertices the k-th arc of
    one direction is paired with the k-th arc of the other, in index
    order; each arc left over gets a fresh weight-0 reverse arc (the
    operator is unaffected).  The fresh arcs are numbered after the given
    ones in the order (lower endpoint, upper endpoint, direction, index of
    the arc they reverse).  Returns ``(pairing, extra_source,
    extra_target)``, where ``pairing`` covers the fresh arcs too.
    """
    s = source.astype(np.int64)
    t = target.astype(np.int64)
    m = len(s)
    n = int(max(s.max(), t.max())) + 1 if m else 1
    arcs = np.flatnonzero(s != t)
    # one run per direction, sorted by lower endpoint, upper endpoint, direction
    run = (np.minimum(s, t) * n + np.maximum(s, t))[arcs] * 2 + (s > t)[arcs]
    order = np.argsort(run, kind="stable")
    arcs, run = arcs[order], run[order]
    rank = np.arange(len(arcs)) - np.searchsorted(run, run)
    # the k-th arc of a forward run pairs with the k-th of the backward run after it
    back_start = np.searchsorted(run, run + 1)
    back_size = np.searchsorted(run, run + 1, side="right") - back_start
    fwd = np.flatnonzero((run % 2 == 0) & (rank < back_size))
    bwd = back_start[fwd] + rank[fwd]
    pairing = np.arange(m)
    pairing[arcs[fwd]] = arcs[bwd]
    pairing[arcs[bwd]] = arcs[fwd]
    matched = np.zeros(m, dtype=bool)
    matched[arcs[fwd]] = matched[arcs[bwd]] = True
    extra = arcs[~matched[arcs]]
    pairing[extra] = m + np.arange(len(extra))
    return np.concatenate([pairing, extra]), t[extra], s[extra]


def _check_arc_budget(count: int):
    from .operator import MAX_ARCS

    if count > MAX_ARCS:
        raise DimensionCapError(f"composition would have {count} arcs; the arc cap is {MAX_ARCS}")


def _compose(graph: WeightedGraph, other: WeightedGraph):
    """:func:`compose`, keeping the factor arc of each composed arc.

    Returns ``(composed, left, right)``: composed arc ``k`` is the path
    ``(left[k], right[k])`` of an arc of ``graph`` and an arc of
    ``other``, and both are -1 on a zero-completion arc.
    """
    if graph.vertices != other.vertices:
        raise GraphStructureError("compose requires identical vertex sets")
    n = len(graph.vertices)
    out_deg = np.bincount(other.source, minlength=n)
    _check_arc_budget(int(np.bincount(graph.target, minlength=n) @ out_deg))
    # CSR grouping of ``other`` on the middle vertex, arcs in index order
    by_source = np.argsort(other.source, kind="stable")
    start = np.cumsum(out_deg) - out_deg
    fan = out_deg[graph.target]
    first = np.cumsum(fan) - fan
    left = np.repeat(np.arange(len(graph.weight)), fan)
    offset = np.arange(len(left)) - first[left]
    right = by_source[start[graph.target[left]] + offset]
    source = graph.source[left]
    target = other.target[right]
    weight = _cmul(graph.weight[left], other.weight[right])

    if _same_skeleton(graph, other):
        # the reversal of the path (a, b) is (pairing(b), pairing(a))
        rank = np.empty(len(by_source), dtype=np.int64)
        rank[by_source] = np.arange(len(by_source)) - start[other.source[by_source]]
        pair = first[other.pair[right]] + rank[graph.pair[left]]
    else:
        pair, extra_source, extra_target = _complete_pairing(source, target)
        zeros = np.zeros(len(extra_source), dtype=complex)
        missing = np.full(len(extra_source), -1)
        source = np.concatenate([source, extra_source])
        target = np.concatenate([target, extra_target])
        weight = np.concatenate([weight, zeros])
        left = np.concatenate([left, missing])
        right = np.concatenate([right, missing])
    return WeightedGraph(graph.vertices, source, target, weight, pair), left, right


def compose(graph: WeightedGraph, other: WeightedGraph) -> WeightedGraph:
    """Composition graph; its operator is ``H_graph @ H_other``.

    The arcs of the result are the composable pairs ``(a, b)`` with ``a``
    from ``graph``, ``b`` from ``other`` and ``target(a) == source(b)``,
    ordered by ``a`` and then ``b``, weighted by the product of the factor
    weights.  When the factors share an arc skeleton (endpoints and
    pairing agree index by index) the reversal of ``(a, b)`` is
    ``(pairing(b), pairing(a))``, the reversed length-2 path.  Otherwise
    reversals are completed deterministically, adding weight-0 arcs where
    a direction has no counterpart.  The composed arc count is checked
    against :data:`wgraph.operator.MAX_ARCS` before anything is allocated.
    """
    return _compose(graph, other)[0]


_GRAPH_OPS = SimpleNamespace(scale=scale, add_scalar=add_scalar, adjoint=adjoint, compose=compose)
"""The graph operations, as the ``ops`` argument of :func:`_deficiency_chain`."""


def _check_int(value, name: str, error=ValueError) -> int:
    """``value`` as an int; refused with ``error`` unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an int, got {value!r}") from None


def _check_radius(radius: float):
    """Refuse a deficiency radius whose square is not a positive finite number."""
    if not (radius > 0 and 0 < radius * radius < np.inf):
        raise ValueError(f"radius must be positive with a finite nonzero square, got {radius!r}")


def _check_lambda(lam) -> complex:
    """``lam`` as a complex number, refused unless both of its parts are finite."""
    z = complex(lam)
    if not np.isfinite(z):
        raise ValueError(f"lambda must be finite, got {z!r}")
    return z


def _deficiency_chain(x, lam, radius: float, side: str, ops):
    """The five operations that assemble a deficiency graph, applied to ``x``.

    ``ops`` supplies ``scale``, ``add_scalar``, ``adjoint`` and ``compose``
    for the kind of object ``x`` is: :data:`_GRAPH_OPS` for graphs, or
    induced coverings for a covering.
    """
    _check_radius(radius)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    shifted = ops.add_scalar(x, -_check_lambda(lam))
    star = ops.adjoint(shifted)
    if side == "right":
        prod = ops.compose(star, shifted)
    else:
        prod = ops.compose(shifted, star)
    return ops.add_scalar(ops.scale(prod, -1.0 / (radius * radius)), 1.0)


def deficiency_graph(graph: WeightedGraph, lam, radius: float, side: str = "right") -> WeightedGraph:
    """Graph of the membership-test operator at ``lam``.

    For ``side="right"`` the result materializes to
    ``I - (H - lam)*(H - lam) / radius**2``; ``side="left"`` swaps the
    product order.  Assembled purely from ``add_scalar``, ``adjoint``,
    ``compose`` and ``scale``, so the matrix identity holds exactly.
    """
    return _deficiency_chain(graph, lam, radius, side, _GRAPH_OPS)
