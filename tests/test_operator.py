import numpy as np
import pytest

from helpers import random_graph, reference_residual, unit_disk

from wgraph import (
    DimensionCapError,
    FinSuppVector,
    make_graph,
    materialize,
    matrix_norm_bound,
    norm_bound,
)
import wgraph.operator
from wgraph.core import _cmul
from wgraph.operator import _matvec, _schur_bound
from wgraph.spectra import _shift, _shift_adjoint


def test_finsupp_vector_drops_zeros_and_accumulates():
    v = FinSuppVector([("a", 1.0), ("a", -1.0), ("b", 2j)])
    assert v.support() == ["b"]
    assert v.items() == [("b", 2j)]
    assert FinSuppVector({"x": 0.0}).is_zero()


def test_finsupp_vector_equality_and_repr():
    v = FinSuppVector({"b": 2j, "a": 1.0})
    assert v == FinSuppVector([("a", 1.0), ("b", 2j)]) and v != FinSuppVector.delta("a")
    assert v.__eq__({"a": 1.0, "b": 2j}) is NotImplemented and v != {"a": 1.0, "b": 2j}
    assert repr(v) == "FinSuppVector({'a': (1+0j), 'b': 2j})"  # in support order
    assert repr(FinSuppVector()) == "FinSuppVector({})"


def test_finsupp_vector_inner_and_norm():
    v = FinSuppVector({"a": 1 + 1j, "b": 2.0})
    # inner is linear in the first slot, conjugate-linear in the second
    assert FinSuppVector({"a": 2j}).inner(FinSuppVector({"a": 3j})) == 6.0
    assert v.inner(v) == pytest.approx(abs(1 + 1j) ** 2 + 4.0)
    assert FinSuppVector.delta("a").norm() == 1.0


def test_matvec_on_two_cycle_swaps_deltas():
    g = make_graph(["v", "w"], [("v", "w", 1.0), ("w", "v", 1.0)], [1, 0])
    out = _matvec(g, np.array([1, 0], dtype=complex))
    assert np.array_equal(out, [0, 1]) and np.array_equal(out, materialize(g)[:, 0])


def test_matvec_matches_dense_product_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = random_graph(rng, max_n=10)
        m = materialize(g)
        for j, delta in enumerate(np.eye(g.order, dtype=complex)):
            assert np.array_equal(_matvec(g, delta), m[:, j])


def test_matvec_residual_is_the_all_arcs_residual_bit_for_bit():
    """Leaving out the arcs whose entry of ``v`` is 0 or -0.0 changes no bit of the residual
    of ``_witness_distance``, the sign of a zero included."""
    rng = np.random.default_rng(343)
    zeros = np.array([0.0, -0.0, 0j, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)])
    for case in range(200):
        g = random_graph(rng, max_n=12)
        v = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        kind = rng.integers(0, 3, size=g.order)
        v[kind == 0] = rng.choice(zeros, size=int((kind == 0).sum()))
        v[kind == 1] = v[kind == 1].real  # a real entry: an imaginary part of +0.0
        lam = complex(unit_disk(rng)) * 2 if case % 4 else 0j
        got = _matvec(g, v) - _cmul(lam, v)
        assert got.tobytes() == reference_residual(g, v, lam).tobytes(), case


def test_materialize_enforces_dimension_cap():
    verts = [f"v{i:04d}" for i in range(2049)]
    g = make_graph(verts, [], [])
    with pytest.raises(DimensionCapError):
        materialize(g)


def test_norm_bound_on_cycles_and_loops():
    verts = [f"c{i}" for i in range(6)]
    arcs = []
    pairing = []
    for i in range(6):
        k = len(arcs)
        arcs.append((verts[i], verts[(i + 1) % 6], 1.0))
        arcs.append((verts[(i + 1) % 6], verts[i], 1.0))
        pairing.extend([k + 1, k])
    cycle = make_graph(verts, arcs, pairing)
    assert norm_bound(cycle) == pytest.approx(2.0)
    loop = make_graph(["a"], [("a", "a", -3 + 4j)], [0])
    assert norm_bound(loop) == pytest.approx(5.0)


def test_norm_bound_dominates_spectral_radius():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_graph(rng, max_n=12)
        m = materialize(g)
        if g.order == 0:
            continue
        rho = float(np.max(np.abs(np.linalg.eigvals(m)))) if m.size else 0.0
        assert norm_bound(g) >= rho - 1e-12
        assert matrix_norm_bound(m) >= rho - 1e-12


def test_shift_moves_deltas_forward():
    for k in range(101):
        assert _shift(FinSuppVector.delta(k)) == FinSuppVector.delta(k + 1)


def test_shift_adjoint_kills_origin_and_inverts_shift():
    assert _shift_adjoint(FinSuppVector.delta(0)).is_zero()
    rng = np.random.default_rng(17)
    for _ in range(100):
        keys = rng.integers(0, 50, size=rng.integers(1, 8))
        f = FinSuppVector(
            [(int(k), complex(rng.normal(), rng.normal())) for k in keys]
        )
        assert _shift_adjoint(_shift(f)) == f


@pytest.mark.parametrize("op", [None, np.eye(2), FinSuppVector.delta(0)], ids=["None", "matrix", "vector"])
def test_norm_bound_takes_only_a_weighted_graph(op):
    with pytest.raises(TypeError, match=f"^no norm bound for object of type {type(op).__name__}$"):
        norm_bound(op)


def _matrix_norm_bound_reference(m):
    """The whole-matrix formula that :func:`matrix_norm_bound` computes in blocks of rows."""
    absm = np.abs(m)
    return _schur_bound(float(absm.sum(axis=1).max()), float(absm.sum(axis=0).max()))


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 768])  # at 2^16 entries, 768 rows: nine blocks of 85 and one of 3
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("block", [1, 1000, 1 << 16])
def test_matrix_norm_bound_in_blocks_is_the_whole_matrix_formula_bit_for_bit(monkeypatch, n, kind, block):
    monkeypatch.setattr(wgraph.operator, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    if kind == "complex":
        m = m + 1j * rng.standard_normal((n, n))
    m[rng.random((n, n)) < 0.1] = -0.0
    cases = [m, np.abs(m) * 0.0, -np.abs(m) * 0.0]
    cases += [m * scale for scale in (1e200, 1e-170)]  # the product of the sums overflows, underflows
    for case in cases:
        assert matrix_norm_bound(case) == _matrix_norm_bound_reference(case)
