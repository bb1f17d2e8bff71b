"""The array-backed graph core against the arc-by-arc references in helpers."""

import numpy as np
import pytest

import wgraph.operator
from helpers import (
    random_graph,
    random_voltage_cover,
    reference_complete_pairing,
    reference_compose_with_pairs,
    reference_materialize,
    reference_norm_bound,
    reference_verify_covering,
    unit_disk,
)
from wgraph import (
    Arc,
    CoveringMap,
    DimensionCapError,
    adjoint,
    compose,
    deficiency_route_check,
    induced_deficiency_covering,
    make_graph,
    materialize,
    norm_bound,
    scale,
    spectrum,
    verify_covering,
    write_graph,
)
from wgraph.cli import main
from wgraph.core import _complete_pairing, _compose


def bits(values) -> np.ndarray:
    """Complex values as raw 64-bit words, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=complex).view(np.int64)


def assert_same_arcs(arcs, ref_arcs):
    arcs = list(arcs)
    assert [(a.source, a.target) for a in arcs] == [(a.source, a.target) for a in ref_arcs]
    assert np.array_equal(bits([a.weight for a in arcs]), bits([a.weight for a in ref_arcs]))


def test_compose_matches_reference_on_random_multigraphs():
    rng = np.random.default_rng(2026)
    completions = lone_directions = 0
    for _ in range(120):
        n = int(rng.integers(1, 7))
        g = random_graph(rng, n=n, max_pairs=2 * n)
        h = random_graph(rng, n=n, max_pairs=2 * n)
        for a, b in ((g, g), (g, adjoint(g)), (g, h), (h, g), (scale(g, 0.5 - 2j), h)):
            composed, left, right = _compose(a, b)
            ref_arcs, ref_pairing, ref_pairs = reference_compose_with_pairs(a, b)
            assert_same_arcs(composed.arcs, ref_arcs)
            assert composed.pairing == tuple(ref_pairing)
            # a zero-completion arc is -1 on both sides
            assert list(zip(left.tolist(), right.tolist())) == [p or (-1, -1) for p in ref_pairs]
            assert np.array_equal(bits(materialize(composed)), bits(reference_materialize(composed)))
            assert norm_bound(composed) == reference_norm_bound(composed)
            completions += ref_pairs.count(None)
            ends = {(x.source, x.target) for x, p in zip(ref_arcs, ref_pairs) if p is not None}
            lone_directions += sum((t, s) not in ends for s, t in ends)
    assert completions > 0 and lone_directions > 0


def test_complete_pairing_matches_reference_on_unbalanced_directions():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 25))
        source, target = rng.integers(0, n, size=(2, m))
        names = [f"v{i}" for i in range(n)]
        arcs = [Arc(names[s], names[t], 1j) for s, t in zip(source, target)]
        ref_pairing = reference_complete_pairing(arcs)
        pairing, extra_source, extra_target = _complete_pairing(source, target)
        assert pairing.tolist() == ref_pairing
        assert [(names[s], names[t]) for s, t in zip(extra_source, extra_target)] == [
            (a.source, a.target) for a in arcs[m:]
        ]


def test_materialize_and_norm_bound_match_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(100):
        g = random_graph(rng, max_n=12, max_pairs=40)
        assert np.array_equal(bits(materialize(g)), bits(reference_materialize(g)))
        assert norm_bound(g) == reference_norm_bound(g)


def _broken(covering: CoveringMap, rng, kind: str) -> CoveringMap:
    cov, base = covering.cover, covering.base
    vm, am = dict(covering.vertex_map), list(covering.arc_map)
    if kind == "weight":
        arcs = [(a.source, a.target, a.weight) for a in cov.arcs]
        i = int(rng.integers(len(arcs)))
        arcs[i] = (arcs[i][0], arcs[i][1], arcs[i][2] + 1e-9)
        cov = make_graph(cov.vertices, arcs, cov.pairing)
    elif kind == "endpoint":
        v = cov.vertices[int(rng.integers(cov.order))]
        vm[v] = base.vertices[int(rng.integers(base.order))]
    elif kind == "arc_map":
        for _ in range(int(rng.integers(1, 4))):
            am[int(rng.integers(len(am)))] = int(rng.integers(len(base.arcs)))
    elif kind == "surjectivity":
        base = make_graph(list(base.vertices) + ["zz"], list(base.arcs), base.pairing)
    return CoveringMap(cov, base, vm, tuple(am))


def test_verify_covering_matches_reference_with_every_violation_kind():
    rng = np.random.default_rng(404)
    seen = set()
    for _ in range(100):
        _, _, covering = random_voltage_cover(rng, max_n=8, max_degree=3)
        for kind in ("none", "weight", "endpoint", "arc_map", "surjectivity"):
            broken = _broken(covering, rng, kind) if kind != "none" else covering
            violations = verify_covering(broken)
            assert violations == reference_verify_covering(broken)
            seen.update(v.kind for v in violations)
    assert seen == {"endpoint", "pairing", "weight", "local_bijectivity", "surjectivity"}


def test_composed_and_scaled_weights_equal_python_products():
    # pick factor weights where numpy's complex multiply rounds differently
    # from Python's, when this machine's numpy loops have any such pairs
    rng = np.random.default_rng(12)
    a = unit_disk(rng, 20000) * 10.0 ** rng.uniform(-3, 3, 20000)
    b = unit_disk(rng, 20000) * 10.0 ** rng.uniform(-3, 3, 20000)
    python = np.array([complex(x) * complex(y) for x, y in zip(a, b)])
    differ = np.flatnonzero(bits(a * b) != bits(python))
    picked = np.concatenate([differ[:12], np.arange(12)])
    k = len(picked)
    g = make_graph(["u", "v"], [("u", "v", w) for w in a[picked]] + [("v", "u", 0.5)] * k,
                   [k + i for i in range(k)] + list(range(k)))
    h = make_graph(["u", "v"], [("v", "u", w) for w in b[picked]] + [("u", "v", 0.25)] * k,
                   [k + i for i in range(k)] + list(range(k)))
    composed, left, right = _compose(g, h)
    want = [g.arcs[i].weight * h.arcs[j].weight for i, j in zip(left.tolist(), right.tolist())]
    assert np.array_equal(bits(composed.weight), bits(want))
    factor = complex(b[picked[0]])
    assert np.array_equal(bits(scale(g, factor).weight), bits([factor * x.weight for x in g.arcs]))


LAMBDAS = [0.0, -1.25, 0.3 + 0.7j, -0.4 - 0.9j, 1e-3 - 2.5j]


def test_route_report_equals_per_lambda_chains():
    rng = np.random.default_rng(72)
    _, _, covering = random_voltage_cover(rng, max_n=6, max_degree=3)
    report = deficiency_route_check(covering, lambdas=LAMBDAS, radius=6.0, side="left")
    cover_vals = spectrum(materialize(covering.cover)).as_array()
    for step, lam in zip(report.steps, LAMBDAS):
        chain = induced_deficiency_covering(covering, lam, 6.0, "left")
        base_w = float(np.min(np.abs(np.linalg.eigvalsh(materialize(chain.base)) - 1.0)))
        cover_w = float(np.min(np.abs(np.linalg.eigvalsh(materialize(chain.cover)) - 1.0)))
        assert (step.base_witness, step.cover_witness) == (base_w, cover_w)
        assert step.spectrum_distance == float(np.min(np.abs(cover_vals - lam)))


def test_compose_checks_the_arc_cap_before_building(monkeypatch):
    g = make_graph(["u", "v"], [("u", "v", 1.0), ("v", "u", 2.0), ("u", "u", 3.0)], [1, 0, 2])
    assert len(compose(g, g).arcs) == 5
    monkeypatch.setattr(wgraph.operator, "MAX_ARCS", 4)
    with pytest.raises(DimensionCapError, match="composition would have 5 arcs; the arc cap is 4"):
        compose(g, g)
    monkeypatch.setattr(wgraph.operator, "MAX_ARCS", 5)
    assert len(compose(g, g).arcs) == 5


def test_cli_over_the_arc_cap_exits_two(tmp_path, capsys):
    # 4097 loops on one vertex compose to 4097**2 > 2**24 arcs
    k = 4097
    path = str(tmp_path / "loops.wg")
    write_graph(make_graph(["v"], [("v", "v", 1.0)] * k, range(k)), path)
    code = main(["graph-op", "compose", "--graph", path, "--other", path])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"ERROR: composition would have {k * k} arcs; the arc cap is {1 << 24}\n"
