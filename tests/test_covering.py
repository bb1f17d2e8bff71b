import numpy as np
import pytest

from helpers import GRIGORCHUK_TRANSITIONS, random_voltage_cover, reference_route_steps, schreier_tower

import wgraph.covering
import wgraph.operator
from wgraph import (
    ActionSpec,
    CoveringError,
    CoveringMap,
    DimensionCapError,
    GraphStructureError,
    GroupAlgebraElement,
    deficiency_route_check,
    induced_covering,
    induced_deficiency_covering,
    make_graph,
    materialize,
    pullback_matrix,
    scale,
    spectral_inclusion_check,
    spectrum,
    verify_covering,
    voltage_cover,
    write_action,
    write_covering,
    write_element,
)
from wgraph.cli import main
from wgraph.spectra import DEFAULT_SUBSET_TOL, _distance_to_one, _nearest


def c2_base():
    """Two vertices joined by a double edge, unit weights."""
    return make_graph(
        ["x", "y"],
        [("x", "y", 1.0), ("y", "x", 1.0), ("x", "y", 1.0), ("y", "x", 1.0)],
        [1, 0, 3, 2],
    )


def c4_over_c2():
    """Explicit C4 -> C2 covering: vertices mod 2, arcs by parallel-edge label."""
    base = c2_base()
    verts = [f"c{i}" for i in range(4)]
    arcs, pairing = [], []
    for i in range(4):
        k = len(arcs)
        arcs.append((verts[i], verts[(i + 1) % 4], 1.0))
        arcs.append((verts[(i + 1) % 4], verts[i], 1.0))
        pairing.extend([k + 1, k])
    cover = make_graph(verts, arcs, pairing)
    vertex_map = {f"c{i}": ("x" if i % 2 == 0 else "y") for i in range(4)}
    # cover arc 2k runs c_i -> c_{i+1}; even i uses base edge 0, odd i its partner
    arc_map = []
    for i in range(4):
        if i % 2 == 0:
            arc_map.extend([0, 1])
        else:
            arc_map.extend([3, 2])
    return CoveringMap(cover, base, vertex_map, tuple(arc_map))


def test_identity_covering_is_valid():
    g = c2_base()
    ident = CoveringMap(g, g, {v: v for v in g.vertices}, tuple(range(len(g.weight))))
    assert verify_covering(ident) == []


def test_explicit_c4_to_c2_covering_is_valid():
    assert verify_covering(c4_over_c2()) == []


def test_weight_perturbation_is_detected():
    cov = c4_over_c2()
    bad_arcs = [(a.source, a.target, a.weight) for a in cov.cover.arcs]
    bad_arcs[0] = (bad_arcs[0][0], bad_arcs[0][1], 1.5)
    bad = CoveringMap(
        make_graph(cov.cover.vertices, bad_arcs, cov.cover.pairing),
        cov.base,
        cov.vertex_map,
        cov.arc_map,
    )
    kinds = {v.kind for v in verify_covering(bad)}
    assert "weight" in kinds


def test_each_violation_kind_is_detected():
    cov = c4_over_c2()
    # endpoint: remap one vertex so arc endpoints no longer project
    vm = dict(cov.vertex_map)
    vm["c1"] = "x"
    kinds = {v.kind for v in verify_covering(CoveringMap(cov.cover, cov.base, vm, cov.arc_map))}
    assert "endpoint" in kinds
    # pairing: retarget one arc to the parallel base edge (endpoints still
    # project, but its reversal now maps to the wrong partner)
    am = list(cov.arc_map)
    am[0] = 2
    kinds = {v.kind for v in verify_covering(CoveringMap(cov.cover, cov.base, cov.vertex_map, am))}
    assert "pairing" in kinds
    # local bijectivity: two out-arcs of one cover vertex hit the same base arc
    am = list(cov.arc_map)
    am[7] = am[0]
    kinds = {v.kind for v in verify_covering(CoveringMap(cov.cover, cov.base, cov.vertex_map, am))}
    assert "local_bijectivity" in kinds
    # surjectivity: base with an extra unreachable vertex
    base2 = make_graph(
        list(cov.base.vertices) + ["z"],
        [(a.source, a.target, a.weight) for a in cov.base.arcs],
        cov.base.pairing,
    )
    kinds = {v.kind for v in verify_covering(CoveringMap(cov.cover, base2, cov.vertex_map, cov.arc_map))}
    assert "surjectivity" in kinds


def test_malformed_maps_raise():
    cov = c4_over_c2()
    with pytest.raises(GraphStructureError):
        verify_covering(CoveringMap(cov.cover, cov.base, {}, cov.arc_map))
    with pytest.raises(GraphStructureError):
        verify_covering(CoveringMap(cov.cover, cov.base, cov.vertex_map, cov.arc_map[:-1]))
    bad_vm = dict(cov.vertex_map, c0="nope")
    with pytest.raises(GraphStructureError):
        verify_covering(CoveringMap(cov.cover, cov.base, bad_vm, cov.arc_map))
    with pytest.raises(GraphStructureError):
        verify_covering(CoveringMap(cov.cover, cov.base, cov.vertex_map, (99,) * 8))


def test_induced_coverings_on_identity_are_identities():
    g = c2_base()
    ident = CoveringMap(g, g, {v: v for v in g.vertices}, tuple(range(len(g.weight))))
    out = induced_covering(ident, "scale", factor=2j)
    assert out.cover == scale(g, 2j) and out.base == scale(g, 2j)
    assert verify_covering(out) == []


def test_induced_coverings_pass_verification_and_intertwine():
    cov = c4_over_c2()
    for name, kwargs in [
        ("scale", {"factor": 1.5 - 2j}),
        ("add_scalar", {"factor": 3.0}),
        ("adjoint", {}),
        ("compose", {"other": cov}),
    ]:
        out = induced_covering(cov, name, **kwargs)
        assert verify_covering(out) == []
        p = pullback_matrix(out)
        h1 = materialize(out.cover)
        h2 = materialize(out.base)
        assert np.max(np.abs(h1 @ p - p @ h2)) <= 1e-12
    shifted = induced_covering(cov, "add_scalar", factor=3.0)
    assert len(shifted.cover.arcs) == len(cov.cover.arcs) + 4


def test_induced_compose_needs_matching_vertex_maps():
    cov = c4_over_c2()
    other_vm = dict(cov.vertex_map)
    other_vm["c0"], other_vm["c2"] = "y", "y"
    # same graphs, different phi: rejected before any arc work
    other = CoveringMap(cov.cover, cov.base, other_vm, cov.arc_map)
    with pytest.raises(CoveringError):
        induced_covering(cov, "compose", other=other)


def _identity_covering(g):
    return CoveringMap(g, g, {v: v for v in g.vertices}, tuple(range(len(g.weight))))


def test_induced_compose_refuses_factors_without_a_shared_skeleton():
    # u - w composed with w - t has the path u -> w -> t and no path back: the composed
    # cover would need a weight-0 reversal, which no base arc projects from
    left = make_graph(["t", "u", "w"], [("u", "w", 1.0), ("w", "u", 1.0)], [1, 0])
    right = make_graph(["t", "u", "w"], [("w", "t", 1.0), ("t", "w", 1.0)], [1, 0])
    with pytest.raises(CoveringError) as e:
        induced_covering(_identity_covering(left), "compose", other=_identity_covering(right))
    assert str(e.value) == "composed cover needed zero-completion arcs; compose factors must share an arc skeleton"


def test_induced_compose_refuses_a_factor_pair_with_no_base_arc():
    # the cover arcs u -> w and w -> t are sent to each other's base arcs, so the cover
    # path u -> w -> u is sent to the pair (w -> t, w -> u), which is no path of the base
    g = make_graph(["t", "u", "w"], [("u", "w", 1.0), ("w", "u", 1.0), ("w", "t", 1.0), ("t", "w", 1.0)],
                   [1, 0, 3, 2])
    swapped = CoveringMap(g, g, {v: v for v in g.vertices}, (2, 1, 0, 3))
    with pytest.raises(CoveringError) as e:
        induced_covering(swapped, "compose", other=swapped)
    assert str(e.value) == "no base arc for the composed factor pair (2, 1)"


@pytest.mark.parametrize("context, check", [
    ("deficiency route", deficiency_route_check),
    ("spectral inclusion", spectral_inclusion_check),
    ("induced covering for adjoint", lambda c: induced_covering(c, "adjoint")),
])
def test_checks_refuse_a_covering_with_violations(context, check):
    cov = c4_over_c2()
    bad = CoveringMap(cov.cover, cov.base, dict(cov.vertex_map, c1="x"), cov.arc_map)
    detail = "; ".join([*(f"endpoint at arc {k}" for k in range(4)), "local_bijectivity at vertex c1"])
    with pytest.raises(CoveringError, match=f"^{context}: 5 violation\\(s\\): {detail}$"):
        check(bad)


def test_induced_covering_refuses_an_unknown_op_and_a_compose_without_other():
    cov = c4_over_c2()
    with pytest.raises(ValueError, match="^unknown operation 'shift'$"):
        induced_covering(cov, "shift")
    with pytest.raises(ValueError, match="^compose needs a second covering$"):
        induced_covering(cov, "compose")


def test_induced_deficiency_covering_matches_direct_chain():
    cov = c4_over_c2()
    for side in ("left", "right"):
        out = induced_deficiency_covering(cov, 0.5 - 0.25j, 4.0, side=side)
        assert verify_covering(out) == []
        from wgraph import deficiency_graph

        assert out.cover == deficiency_graph(cov.cover, 0.5 - 0.25j, 4.0, side=side)
        assert out.base == deficiency_graph(cov.base, 0.5 - 0.25j, 4.0, side=side)


def test_voltage_cover_identity_voltages_stack_copies():
    base = c2_base()
    d = 3
    cover, covering = voltage_cover(base, d, [tuple(range(d))] * len(base.arcs))
    assert verify_covering(covering) == []
    sb = np.sort_complex(np.linalg.eigvals(materialize(base)))
    sc = np.sort_complex(np.linalg.eigvals(materialize(cover)))
    stacked = np.sort_complex(np.concatenate([sb] * d))
    assert np.max(np.abs(sc - stacked)) <= 1e-10


def test_voltage_cover_refuses_a_degree_that_is_not_an_int():
    base = c2_base()
    volts = [(1, 0)] * len(base.arcs)
    with pytest.raises(ValueError, match="^degree must be an int, got 2.7$"):
        voltage_cover(base, 2.7, volts)
    assert voltage_cover(base, np.int64(2), volts) == voltage_cover(base, 2, volts)


def test_voltage_cover_loop_with_transposition_gives_two_cycle():
    base = make_graph(["v"], [("v", "v", 1.0)], [0])
    cover, covering = voltage_cover(base, 2, [(1, 0)])
    assert verify_covering(covering) == []
    assert cover.order == 2
    assert sorted(np.linalg.eigvalsh(materialize(cover)).tolist()) == pytest.approx([-1.0, 1.0])
    assert spectrum(materialize(base)).values == (1 + 0j,)


def test_voltage_cover_c2_to_c4_inclusion():
    base = c2_base()
    swap = (1, 0)
    ident = (0, 1)
    cover, covering = voltage_cover(base, 2, [swap, swap, ident, ident])
    assert verify_covering(covering) == []
    inc = spectral_inclusion_check(covering)
    assert inc.included and inc.intertwining_residual <= 1e-12
    cover_eigs = np.sort(np.linalg.eigvalsh(materialize(cover)))
    assert np.allclose(cover_eigs, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_voltage_cover_rejects_incompatible_voltages():
    base = c2_base()
    with pytest.raises(ValueError):
        voltage_cover(base, 2, [(1, 0), (0, 1), (0, 1), (0, 1)])
    loop = make_graph(["v"], [("v", "v", 1.0)], [0])
    with pytest.raises(ValueError):
        voltage_cover(loop, 3, [(1, 2, 0)])  # 3-cycle is not involutive
    with pytest.raises(ValueError):
        voltage_cover(base, 2, [(0, 0), (0, 1), (0, 1), (0, 1)])


def test_spectral_inclusion_identity_distance_zero():
    g = c2_base()
    inc = spectral_inclusion_check(CoveringMap(g, g, {v: v for v in g.vertices}, tuple(range(len(g.weight)))))
    assert inc.included
    assert inc.subset.max_deviation == 0.0
    assert inc.intertwining_residual == 0.0


def test_random_voltage_covers_include_spectra():
    rng = np.random.default_rng(9)
    for _ in range(10):
        base, cover, covering = random_voltage_cover(rng)
        assert verify_covering(covering) == []
        inc = spectral_inclusion_check(covering)
        assert inc.intertwining_residual <= 1e-12
        assert inc.included, f"worst deviation {inc.subset.max_deviation}"


def test_deficiency_route_on_explicit_cover():
    cov = c4_over_c2()
    for side in ("left", "right"):
        report = deficiency_route_check(cov, side=side)
        assert report.all_ok
        assert len(report.steps) == cov.base.order
        for st in report.steps:
            assert st.base_witness <= report.tol
            assert st.cover_witness <= report.tol
            assert st.spectrum_distance <= report.tol


def test_deficiency_route_with_explicit_lambdas_and_radius():
    cov = c4_over_c2()
    report = deficiency_route_check(cov, lambdas=[2.0, -2.0], radius=8.0, tol=1e-8)
    assert report.radius == 8.0 and report.all_ok


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_deficiency_route_refuses_a_non_finite_tol(tol):
    cov = voltage_cover(c2_base(), 2, [(1, 0), (1, 0), (0, 1), (0, 1)])[1]
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        deficiency_route_check(cov, tol=tol)


@pytest.mark.parametrize("radius", [np.inf, np.nan, 1e200])
def test_deficiency_route_refuses_a_radius_whose_square_is_not_finite(radius):
    cov = voltage_cover(c2_base(), 2, [(1, 0), (1, 0), (0, 1), (0, 1)])[1]
    with pytest.raises(ValueError, match="radius must be positive"):
        deficiency_route_check(cov, radius=radius)


def test_deficiency_route_default_radius_has_a_floor_for_zero_weights():
    base = make_graph(["x", "y"], [("x", "y", 0.0), ("y", "x", 0.0)], [1, 0])
    report = deficiency_route_check(voltage_cover(base, 2, [(1, 0), (1, 0)])[1])
    assert report.radius == 2e-12 and report.all_ok


def reweighted(covering, hermitian: bool, factor: float) -> CoveringMap:
    """``covering`` with every weight multiplied by ``factor``, after taking the Hermitian
    part ``(H + H*)/2`` if asked.  Both graphs get the same arithmetic arc by arc, so the
    weight axiom still holds bit for bit."""
    def weights(g):
        w = (g.weight + np.conj(g.weight[g.pair])) / 2 if hermitian else g.weight
        return g.with_weights(w * factor)

    return CoveringMap(weights(covering.cover), weights(covering.base), covering.vertex_map, covering.arc_map)


def witness_covers() -> list:
    """Seeded Hermitian and non-Hermitian voltage covers, at unit scale and with weights near
    the top (1e150) and the bottom (1e-170) of what the route's squared radius admits."""
    rng = np.random.default_rng(2718)
    covers = []
    for _ in range(6):
        covering = random_voltage_cover(rng, max_n=7, max_degree=3)[2]
        covers += [reweighted(covering, h, f) for h in (False, True) for f in (1.0, 1e150, 1e-170)]
    return covers


def hamiltonian_cover(rng, n: int, degree: int) -> CoveringMap:
    """Non-Hermitian base of two random Hamiltonian cycles on ``n`` vertices, each arc and its
    reversal weighted independently, lifted through ``degree`` random sheets."""
    names = [f"b{i:04d}" for i in range(n)]
    arcs, volts = [], []
    for _ in range(2):
        order = rng.permutation(n)
        for i, j in zip(order.tolist(), np.roll(order, -1).tolist()):
            w = rng.standard_normal(4).view(complex)
            perm = rng.permutation(degree)
            arcs += [(names[i], names[j], w[0]), (names[j], names[i], w[1])]
            volts += [tuple(perm.tolist()), tuple(np.argsort(perm).tolist())]
    base = make_graph(names, arcs, [k ^ 1 for k in range(len(arcs))])
    return voltage_cover(base, degree, volts)[1]


def count_eigvalsh(monkeypatch) -> list:
    calls, real = [], np.linalg.eigvalsh

    def counted(m):
        calls.append(len(m))
        return real(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("side", ["left", "right"])
def test_route_witnesses_are_certified_upper_bounds(side, monkeypatch):
    covers = witness_covers()
    for covering in covers:
        covering.spectra  # a Hermitian spectrum takes eigvalsh; solve it before counting
    calls = count_eigvalsh(monkeypatch)
    reports = [deficiency_route_check(covering, side=side) for covering in covers]
    assert calls == []  # every step is certified by its witness
    for covering, report in zip(covers, reports):
        assert len(report.steps) == covering.base.order
        for step in report.steps:
            for graph, got in ((covering.base, step.base_witness), (covering.cover, step.cover_witness)):
                shifted = materialize(graph) - step.lam * np.eye(graph.order)
                sigma = np.linalg.svd(shifted, compute_uv=False)[-1]
                assert (sigma / report.radius) ** 2 <= got <= report.tol
            # the verdict of the dense distances that the witnesses stand in for
            chain = induced_deficiency_covering(covering, step.lam, report.radius, side)
            dense = [_distance_to_one(materialize(g)) for g in (chain.base, chain.cover)]
            assert step.ok == (max(dense) <= report.tol and step.spectrum_distance <= report.tol)


def test_route_refuses_weights_whose_radius_has_no_finite_square():
    covering = reweighted(random_voltage_cover(np.random.default_rng(3), max_n=4)[2], False, 1e200)
    with pytest.raises(ValueError, match="has no finite square"):
        deficiency_route_check(covering)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_route_refuses_a_lambda_whose_deficiency_weights_overflow(monkeypatch):
    # no witness certifies so far out, and lam^2 overflows in the deficiency graph of the fallback
    covering = random_voltage_cover(np.random.default_rng(3), max_n=4)[2]
    for lam in (1e160, 1e160 + 1e160j):
        with pytest.raises(ValueError, match=r"deficiency graph at .*: a weight overflowed"):
            deficiency_route_check(covering, lambdas=[0.5, lam])
    # a non-finite lam is refused before the deficiency covering is built
    built, real = [], wgraph.covering.induced_deficiency_covering
    monkeypatch.setattr(wgraph.covering, "induced_deficiency_covering",
                        lambda *args: built.append(args) or real(*args))
    with pytest.raises(ValueError, match="lambda must be finite"):
        deficiency_route_check(covering, lambdas=[0.5, complex("nan")])
    assert built == []


def test_route_distances_are_the_subset_search_bit_for_bit():
    for covering in witness_covers():
        cover_vals = covering.spectra[1].as_array()
        steps = deficiency_route_check(covering).steps
        got = np.array([s.spectrum_distance for s in steps])
        want = np.concatenate([_nearest(np.array([s.lam]), cover_vals) for s in steps])
        dense = np.array([np.min(np.abs(cover_vals - s.lam)) for s in steps])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got.view(np.int64), dense.view(np.int64))
        deviation = spectral_inclusion_check(covering).subset.max_deviation
        assert np.array_equal(np.float64(got.max()).view(np.int64), np.float64(deviation).view(np.int64))


def raise_linalg_error(m):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def count_deficiency_graphs(monkeypatch) -> list:
    """Record the ``id`` of the graph of every deficiency graph the route builds."""
    built, real = [], wgraph.covering.deficiency_graph

    def counted(graph, *args):
        built.append(id(graph))
        return real(graph, *args)

    monkeypatch.setattr(wgraph.covering, "deficiency_graph", counted)
    return built


def uncertified(covering: CoveringMap, bounds, tol: float) -> list:
    """The ``id`` of each side, step by step and base first, whose witness bound in ``bounds``
    (the steps of a route at a tol every witness meets) is not <= ``tol``."""
    return [id(g) for s in bounds for g, w in ((covering.base, s.base_witness), (covering.cover, s.cover_witness))
            if not w <= tol]


@pytest.mark.parametrize("past", ["tol", "eig"])
def test_route_falls_back_to_the_dense_distance_past_every_witness(past, monkeypatch):
    # at tol = 1e-300 no witness certifies, as (e/R)^2 alone is far above it; without eig
    # there is no witness at all
    tol = 1e-300 if past == "tol" else DEFAULT_SUBSET_TOL
    if past == "eig":
        monkeypatch.setattr(np.linalg, "eig", raise_linalg_error)
    built = count_deficiency_graphs(monkeypatch)
    for covering in witness_covers()[:12]:
        for side in ("left", "right"):
            # a step builds the graph of each side no witness certifies; at 1e-300 the witness
            # of a graph of weights near 1e-170 still does.  At the default tol all of them do.
            bounds = deficiency_route_check(covering, side=side).steps if past == "tol" else None
            del built[:]
            report = deficiency_route_check(covering, tol=tol, side=side)
            if past == "tol":
                assert built == uncertified(covering, bounds, tol)
            else:
                assert built == [id(covering.base), id(covering.cover)] * len(report.steps)
            for step in report.steps:
                chain = induced_deficiency_covering(covering, step.lam, report.radius, side)
                want = (_distance_to_one(materialize(chain.base)), _distance_to_one(materialize(chain.cover)))
                assert np.array_equal(np.array([step.base_witness, step.cover_witness]).view(np.int64),
                                      np.array(want).view(np.int64))


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_certified_route_builds_no_deficiency_graph(side, monkeypatch):
    covers = witness_covers() + [hamiltonian_cover(np.random.default_rng(30), 30, 8)]
    radii = [deficiency_route_check(covering, side=side).radius for covering in covers]
    want = [reference_route_steps(c, r, DEFAULT_SUBSET_TOL, side) for c, r in zip(covers, radii)]
    built = count_deficiency_graphs(monkeypatch)
    for covering, steps in zip(covers, want):
        assert deficiency_route_check(covering, side=side).steps == steps
    assert built == []


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_step_builds_the_deficiency_graph_of_each_uncertified_side_only(side, monkeypatch):
    # at the median of all the witness bounds some sides certify and some do not
    covers = witness_covers()
    reports = [deficiency_route_check(covering, side=side) for covering in covers]
    bounds = [report.steps for report in reports]
    tol = float(np.median([w for steps in bounds for s in steps for w in (s.base_witness, s.cover_witness)]))
    want = [reference_route_steps(c, report.radius, tol, side) for c, report in zip(covers, reports)]
    built = count_deficiency_graphs(monkeypatch)
    sides = {"base": 0, "cover": 0}
    for covering, certified, steps in zip(covers, bounds, want):
        del built[:]
        assert deficiency_route_check(covering, tol=tol, side=side).steps == steps
        assert built == uncertified(covering, certified, tol)
        sides["base"] += built.count(id(covering.base))
        sides["cover"] += built.count(id(covering.cover))
    assert sides["base"] and sides["cover"]  # both kinds of fallback were taken
    assert sides["base"] + sides["cover"] < 2 * sum(map(len, bounds))


def test_a_certified_route_at_the_benchmark_size_calls_no_eigvalsh(monkeypatch):
    # 30 base vertices through 8 sheets, the size of the cover-route benchmark input
    covering = hamiltonian_cover(np.random.default_rng(30), 30, 8)
    calls = count_eigvalsh(monkeypatch)
    report = deficiency_route_check(covering)
    assert calls == []
    assert report.all_ok and len(report.steps) == 30
    assert max(max(s.base_witness, s.cover_witness) for s in report.steps) <= 1e-20


def test_voltage_cover_checks_the_lift_budget_before_reading_voltages(monkeypatch):
    def unread():
        raise AssertionError("voltages read before the budget check")
        yield

    # three vertices and two arcs: at degree 2 the vertex count is the larger
    base = make_graph(["x", "y", "z"], [("x", "y", 1.0), ("y", "x", 1.0)], [1, 0])
    monkeypatch.setattr(wgraph.operator, "MAX_ARCS", 5)
    with pytest.raises(DimensionCapError, match="cover would have 6 vertices and 4 arcs; the arc cap is 5"):
        voltage_cover(base, 2, unread())
    monkeypatch.setattr(wgraph.operator, "MAX_ARCS", 6)
    assert voltage_cover(base, 2, [(1, 0), (1, 0)])[0].order == 6


# --- the Schreier tower: the level-(n+1) orbital graph of an element covers the level-n one

TOWER_ELEMENTS = {
    "a+b+c+d": GroupAlgebraElement({(w,): 1.0 for w in "abcd"}),
    "non-normal": GroupAlgebraElement({("a",): 1.0, ("b",): 0.5, ("c",): 0.25 + 0.5j}),
}


@pytest.mark.parametrize("level", [3, 6])
@pytest.mark.parametrize("name", sorted(TOWER_ELEMENTS))
def test_the_schreier_tower_is_a_covering_with_spectral_inclusion(name, level):
    covering = schreier_tower(GRIGORCHUK_TRANSITIONS, ["0", "1"], TOWER_ELEMENTS[name], level)
    assert (covering.cover.order, covering.base.order) == (2 ** (level + 1), 2 ** level)
    assert verify_covering(covering) == []
    inc = spectral_inclusion_check(covering)
    assert inc.included and inc.intertwining_residual == 0.0
    assert deficiency_route_check(covering).all_ok


@pytest.mark.parametrize("name", sorted(TOWER_ELEMENTS))
def test_cover_include_on_the_tower_prints_the_orbital_spectrum_of_the_base(name, tmp_path, capsys):
    level, element = 6, TOWER_ELEMENTS[name]
    cov, act, elt = (str(tmp_path / f) for f in ("tower.cov", "grigorchuk.act", "element.elt"))
    write_covering(schreier_tower(GRIGORCHUK_TRANSITIONS, ["0", "1"], element, level), cov)
    write_action(ActionSpec("mealy", transitions=GRIGORCHUK_TRANSITIONS, alphabet=("0", "1")), act)
    write_element(element, elt)
    assert main(["cover", "include", "--map", cov]) == 0
    include = capsys.readouterr().out.splitlines()
    main(["orbital", "--action", act, "--element", elt, "--x", "0" * level, "--y", "1" * level,
          "--level", str(level)])
    orbital = capsys.readouterr().out.splitlines()
    assert "INCLUDED: ok" in include
    base = next(line for line in include if line.startswith("BASE SPECTRUM: "))
    x = next(line for line in orbital if line.startswith("SPECTRUM X: "))
    assert base.removeprefix("BASE SPECTRUM: ") == x.removeprefix("SPECTRUM X: ")
