import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_graph, reference_compose_with_pairs

from wgraph import (
    Arc,
    GraphStructureError,
    add_scalar,
    adjoint,
    compose,
    deficiency_graph,
    make_graph,
    materialize,
    matrix_norm_bound,
    scale,
)
from wgraph.core import _compose


def two_cycle(w1=1.0, w2=1.0):
    return make_graph(["u", "v"], [("u", "v", w1), ("v", "u", w2)], [1, 0])


def test_make_graph_sorts_vertices():
    g = make_graph(["z", "a", "m"], [], [])
    assert g.vertices == ("a", "m", "z")


def test_make_graph_rejects_bad_input():
    with pytest.raises(GraphStructureError):
        make_graph([], [], [])
    with pytest.raises(GraphStructureError):
        make_graph(["a", "a"], [], [])
    with pytest.raises(GraphStructureError):
        make_graph(["a b"], [], [])
    with pytest.raises(GraphStructureError):
        make_graph(["a"], [("a", "q", 1.0)], [0])
    # pairing must be an involution
    with pytest.raises(GraphStructureError):
        make_graph(["a", "b"], [("a", "b", 1), ("b", "a", 1), ("a", "a", 1)], [1, 2, 0])
    # pairing must reverse endpoints
    with pytest.raises(GraphStructureError):
        make_graph(["a", "b"], [("a", "b", 1), ("a", "b", 1)], [1, 0])
    with pytest.raises(GraphStructureError):
        make_graph(["a"], [("a", "a", 1)], [0, 0])
    with pytest.raises(GraphStructureError):
        make_graph(["a", "b"], [("a", "b", 1), ("b", "a", 1)], [0, 1])


def test_duplicate_vertex_ids_are_found_in_linear_time():
    verts = [f"v{i}" for i in range(60_000)] + ["v59999", "v7"]
    start = time.perf_counter()
    with pytest.raises(GraphStructureError) as e:
        make_graph(verts, [], [])
    assert time.perf_counter() - start < 5.0
    assert str(e.value) == "duplicate vertex ids: ['v59999', 'v7']"


def test_vertex_index_refuses_an_unknown_vertex():
    g = two_cycle()
    assert g.vertex_index("v") == 1
    with pytest.raises(GraphStructureError) as e:
        g.vertex_index("w")
    assert str(e.value) == "unknown vertex 'w'"


def test_make_graph_accepts_arc_values_and_loop_styles():
    g = make_graph(["a"], [Arc("a", "a", 2.0), ("a", "a", 3.0), ("a", "a", 4.0)], [0, 2, 1])
    assert g.pairing == (0, 2, 1)
    assert materialize(g)[0, 0] == 9.0


def test_two_cycle_materializes_to_permutation():
    m = materialize(two_cycle())
    assert np.array_equal(m, np.array([[0, 1], [1, 0]], dtype=complex))


def test_single_loop_materializes_to_scalar():
    lam = 0.5 - 2j
    g = make_graph(["a"], [("a", "a", lam)], [0])
    assert np.array_equal(materialize(g), np.array([[lam]]))


def test_scale_matches_matrix_scaling_exactly():
    g = two_cycle(2 + 1j, -0.5)
    assert np.array_equal(materialize(scale(g, 3j)), 3j * materialize(g))


def test_add_scalar_appends_loops_in_vertex_order():
    g = two_cycle()
    shifted = add_scalar(g, 5 - 1j)
    assert np.array_equal(materialize(shifted), materialize(g) + (5 - 1j) * np.eye(2))
    new = shifted.arcs[len(g.arcs):]
    assert [a.source for a in new] == list(g.vertices)
    assert all(shifted.pairing[k] == k for k in range(len(g.arcs), len(shifted.arcs)))


def test_adjoint_is_conjugate_transpose_and_involutive():
    g = make_graph(
        ["a", "b"],
        [("a", "b", 1 + 2j), ("b", "a", -3j), ("a", "a", 2 - 1j), ("a", "a", 4j)],
        [1, 0, 3, 2],
    )
    m = materialize(g)
    assert np.array_equal(materialize(adjoint(g)), m.conj().T)
    assert adjoint(adjoint(g)) == g


def test_compose_matches_matrix_product_on_four_cycle():
    verts = [f"c{i}" for i in range(4)]
    arcs = []
    pairing = []
    for i in range(4):
        k = len(arcs)
        arcs.append((verts[i], verts[(i + 1) % 4], 1.0))
        arcs.append((verts[(i + 1) % 4], verts[i], 1.0))
        pairing.extend([k + 1, k])
    g = make_graph(verts, arcs, pairing)
    m = materialize(g)
    assert np.array_equal(materialize(compose(g, g)), m @ m)


def test_compose_shared_skeleton_pairing_reverses_paths():
    g = two_cycle(2.0, 3.0)
    composed, left, right = _compose(g, g)
    pairs = list(zip(left.tolist(), right.tolist()))
    assert pairs == reference_compose_with_pairs(g, g)[2]
    for k, (i, j) in enumerate(pairs):
        rev = composed.pairing[k]
        assert pairs[rev] == (g.pairing[j], g.pairing[i])


def test_compose_different_skeletons_completes_pairing_with_zero_arcs():
    a = make_graph(["u", "v", "w"], [("u", "v", 2.0), ("v", "u", 1.0)], [1, 0])
    b = make_graph(["u", "v", "w"], [("v", "w", 3.0), ("w", "v", 1.0)], [1, 0])
    composed, left, right = _compose(a, b)
    pairs = reference_compose_with_pairs(a, b)[2]
    assert list(zip(left.tolist(), right.tolist())) == [p or (-1, -1) for p in pairs]
    assert np.array_equal(materialize(composed), materialize(a) @ materialize(b))
    zero = [k for k, p in enumerate(pairs) if p is None]
    assert zero and all(composed.arcs[k].weight == 0 for k in zero)
    for k, p in enumerate(composed.pairing):
        assert composed.pairing[p] == k
        assert composed.arcs[p].source == composed.arcs[k].target


def test_graph_equality_against_other_types_and_hash():
    arcs = [("x", "y", 1.0), ("y", "x", 1.0)]
    g, copy = make_graph(["x", "y"], arcs, [1, 0]), make_graph(["x", "y"], arcs, [1, 0])
    assert g == copy and hash(g) == hash(copy) and len({g, copy}) == 1
    heavier = g.with_weights([2.0, 2.0])
    assert g != heavier and hash(g) == hash(heavier)  # the hash reads only the vertices and the arc count
    assert g.__eq__(materialize(g)) is NotImplemented and g != "g"


def test_compose_requires_same_vertex_set():
    a = make_graph(["u"], [], [])
    b = make_graph(["v"], [], [])
    with pytest.raises(GraphStructureError):
        compose(a, b)


def test_compose_associative_at_operator_level():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g1 = random_graph(rng, max_n=6)
        g2 = make_graph(g1.vertices, [(a.target, a.source, a.weight) for a in g1.arcs],
                        g1.pairing)
        g3 = add_scalar(g1, 1.5j)
        left = materialize(compose(compose(g1, g2), g3))
        right = materialize(compose(g1, compose(g2, g3)))
        assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(left)))


def test_operation_identities_on_random_graphs():
    # parallel arcs make entry sums associate differently on the two sides,
    # so the identities hold to rounding, not bitwise
    rng = np.random.default_rng(42)
    for _ in range(30):
        g = random_graph(rng, max_n=10)
        m = materialize(g)
        lam = complex(rng.normal(), rng.normal())
        checks = [
            (materialize(scale(g, lam)), lam * m),
            (materialize(add_scalar(g, lam)), m + lam * np.eye(g.order)),
            (materialize(adjoint(g)), m.conj().T),
            (materialize(compose(g, g)), m @ m),
        ]
        for got, want in checks:
            ref = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * ref


def test_deficiency_graph_is_hermitian_and_psd_in_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, max_n=8)
        m = materialize(g)
        bound = matrix_norm_bound(m)
        norm = float(np.linalg.norm(m, 2)) if g.order else 0.0
        radius = 2.0 * max(bound, 1e-6)
        lam = norm * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / np.sqrt(2)
        for side in ("left", "right"):
            d = materialize(deficiency_graph(g, lam, radius, side=side))
            assert np.max(np.abs(d - d.conj().T)) <= 1e-12
            eig = np.linalg.eigvalsh(d)
            assert eig.min() >= -1e-9 and eig.max() <= 1.0 + 1e-9


def test_deficiency_graph_rejects_bad_parameters():
    g = two_cycle()
    with pytest.raises(ValueError):
        deficiency_graph(g, 0.0, 0.0)
    with pytest.raises(ValueError):
        deficiency_graph(g, 0.0, 2.0, side="sideways")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    verts = [f"v{i}" for i in range(n)]
    arcs = []
    pairing = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        s = draw(st.integers(min_value=0, max_value=n - 1))
        t = draw(st.integers(min_value=0, max_value=n - 1))
        w = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        if s == t:
            arcs.append((verts[s], verts[s], w))
            pairing.append(len(arcs) - 1)
        else:
            k = len(arcs)
            arcs.append((verts[s], verts[t], w))
            arcs.append((verts[t], verts[s], complex(draw(st.integers(-3, 3)))))
            pairing.extend([k + 1, k])
    return make_graph(verts, arcs, pairing)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(-3, 3), st.integers(-3, 3))
def test_property_ops_preserve_pairing_structure(g, re, im):
    lam = complex(re, im)
    for h in (scale(g, lam), add_scalar(g, lam), adjoint(g), compose(g, g)):
        for k, p in enumerate(h.pairing):
            assert h.pairing[p] == k
            assert h.arcs[p].source == h.arcs[k].target
            assert h.arcs[p].target == h.arcs[k].source


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_property_adjoint_involutive(g):
    assert adjoint(adjoint(g)) == g


@pytest.mark.parametrize("radius", [np.inf, 1e200, np.nan, 1e-200, -2.0])
def test_deficiency_graph_refuses_a_radius_whose_square_is_not_finite_and_positive(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        deficiency_graph(two_cycle(), 0.5, radius)
