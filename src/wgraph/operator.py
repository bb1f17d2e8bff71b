"""Graphs as operators: dense materialization and sparse application.

:class:`WeightedGraph` is the one operator type here.  The one-sided shift of
:func:`wgraph.spectra.shift_counterexample_report` acts on the naturals, which
no finite graph holds; it is applied directly to finitely supported vectors.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .core import WeightedGraph, _cmul
from .errors import DimensionCapError

__all__ = [
    "MAX_DENSE_DIM",
    "MAX_ARCS",
    "FinSuppVector",
    "materialize",
    "apply",
    "norm_bound",
    "matrix_norm_bound",
]

MAX_DENSE_DIM = 2048
# largest arc count a composition may build; at about 28 bytes an arc the
# arc arrays stay below half a gigabyte
MAX_ARCS = 1 << 24
# entries per block of rows that whole-matrix scans read at a time (1 MiB of complex)
_BLOCK_ENTRIES = 1 << 16


def _key_order(k):
    # support may mix int and str keys across call sites; keep sorting total
    return (k.__class__.__name__, k)


class FinSuppVector:
    """Finitely supported vector: a sparse index -> coefficient map.

    Keys are vertex ids, or natural numbers for the one-sided shift.  Zero
    coefficients are never stored, so ``==`` is exact equality of support
    and coefficients, which the shift identities rely on.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        data: dict = {}
        if entries is not None:
            items = entries.items() if hasattr(entries, "items") else entries
            for k, v in items:
                w = complex(v)
                if w != 0:
                    data[k] = data.get(k, 0j) + w
        self._entries = {k: v for k, v in data.items() if v != 0}

    @classmethod
    def delta(cls, index) -> "FinSuppVector":
        return cls({index: 1.0})

    def support(self) -> list:
        return sorted(self._entries, key=_key_order)

    def items(self):
        return [(k, self._entries[k]) for k in self.support()]

    def __getitem__(self, key) -> complex:
        return self._entries.get(key, 0j)

    def __len__(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinSuppVector):
            return NotImplemented
        return self._entries == other._entries

    def __add__(self, other: "FinSuppVector") -> "FinSuppVector":
        out = dict(self._entries)
        for k, v in other._entries.items():
            out[k] = out.get(k, 0j) + v
        return FinSuppVector(out)

    def __sub__(self, other: "FinSuppVector") -> "FinSuppVector":
        return self + (-1.0) * other

    def __rmul__(self, factor) -> "FinSuppVector":
        lam = complex(factor)
        return FinSuppVector({k: lam * v for k, v in self._entries.items()})

    def inner(self, other: "FinSuppVector") -> complex:
        """Inner product, linear in ``self`` and conjugate-linear in ``other``."""
        keys = self._entries.keys() & other._entries.keys()
        return sum((self._entries[k] * other._entries[k].conjugate() for k in sorted(keys, key=_key_order)), 0j)

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self._entries.values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {v}" for k, v in self.items())
        return f"FinSuppVector({{{body}}})"


def _check_dense(n: int):
    """Refuse the dense matrix of a graph of ``n`` vertices past ``MAX_DENSE_DIM``."""
    if n > MAX_DENSE_DIM:
        raise DimensionCapError(f"graph has {n} vertices; the dense cap is {MAX_DENSE_DIM}")


def materialize(graph: WeightedGraph) -> np.ndarray:
    """Dense matrix of the graph operator in canonical vertex order.

    Entry ``[u, w]`` is the total weight of the arcs u -> w, so
    ``(H f)(u) = sum_w M[u, w] f(w)``.
    """
    n = len(graph.vertices)
    _check_dense(n)
    m = np.zeros((n, n), dtype=complex)
    np.add.at(m, (graph.source, graph.target), graph.weight)
    return m


def apply(op: WeightedGraph, vec: FinSuppVector) -> FinSuppVector:
    """Apply a graph operator to a finitely supported vector.

    Exact sparse evaluation: the result support lies in the in-neighborhood
    of the input support and no rounding beyond complex arithmetic occurs.
    """
    if isinstance(op, WeightedGraph):
        values = np.zeros(op.order, dtype=complex)
        for k, v in vec.items():
            if k in op._vertex_pos:
                values[op._vertex_pos[k]] = v
        hit = np.flatnonzero(values[op.target] != 0)
        source = op.source[hit]
        terms = _cmul(op.weight[hit], values[op.target[hit]])
        # sum each row in arc order; rows appear in the order of their first arc
        rows, first = np.unique(source, return_index=True)
        real = np.bincount(source, weights=terms.real, minlength=op.order)
        imag = np.bincount(source, weights=terms.imag, minlength=op.order)
        return FinSuppVector(
            {op.vertices[i]: complex(real[i], imag[i]) for i in rows[np.argsort(first)].tolist()}
        )
    raise TypeError(f"cannot apply object of type {type(op).__name__}")


def _schur_bound(row_sum: float, col_sum: float) -> float:
    """``sqrt(row_sum * col_sum)``, or ``sqrt(row_sum) * sqrt(col_sum)`` where the product
    overflows or falls below the normal range: every bound the product can carry keeps its
    bits, no finite bound is inf and no nonzero bound is 0."""
    product = row_sum * col_sum
    if sys.float_info.min <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(row_sum) * math.sqrt(col_sum)


def norm_bound(op: WeightedGraph) -> float:
    """Upper bound on the operator norm of a graph: the Schur bound
    ``sqrt(max_v sum_out |w| * max_v sum_in |w|)``, which dominates the
    spectral radius.
    """
    if isinstance(op, WeightedGraph):
        # hypot is what abs(complex) computes; np.abs may differ in the last bit
        w = np.hypot(op.weight.real, op.weight.imag)
        outs = np.bincount(op.source, weights=w, minlength=op.order)
        ins = np.bincount(op.target, weights=w, minlength=op.order)
        return _schur_bound(float(outs.max()), float(ins.max()))
    raise TypeError(f"no norm bound for object of type {type(op).__name__}")


def _row_blocks(m: np.ndarray, entries: int) -> list[slice]:
    """Slices of the rows of ``m`` in index order, about ``entries`` entries each."""
    step = max(1, entries // max(1, m.shape[-1]))
    return [slice(i, i + step) for i in range(0, len(m), step)]


def matrix_norm_bound(matrix: np.ndarray) -> float:
    """Schur bound ``sqrt(max row abs-sum * max col abs-sum)`` for a matrix.

    The moduli are taken one block of ``_BLOCK_ENTRIES`` entries at a time, and each column
    sum adds its rows in index order, as ``np.abs(m).sum(axis=0)`` does on a C-contiguous
    ``m``."""
    m = np.asarray(matrix)
    if m.size == 0:
        return 0.0
    rows, cols = np.empty(len(m)), np.zeros(m.shape[1])
    for block in _row_blocks(m, _BLOCK_ENTRIES):
        absm = np.abs(m[block])
        rows[block] = absm.sum(axis=1)
        cols = functools.reduce(np.add, absm, cols)
        del absm  # before the next block's moduli are taken
    return _schur_bound(float(rows.max()), float(cols.max()))
