import gc
import itertools
import math
import subprocess
import sys
import tracemalloc
import weakref
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GRIGORCHUK_TRANSITIONS,
    ODOMETER_TRANSITIONS,
    adjacency_element,
    circulant_spectrum,
    odometer_action,
    random_element,
    random_finite_action,
    reference_act_index,
    reference_adjacency,
    reference_ball,
    reference_ball_code,
    reference_ball_iso,
    reference_distances,
    reference_form,
    reference_from_mealy,
    reference_local_iso,
    reference_orbit,
    reference_orbital_graph,
    unit_disk,
)

from wgraph import (
    ActionError,
    DimensionCapError,
    FinSuppVector,
    GroupAction,
    GroupAlgebraElement,
    LabeledOrbitalGraph,
    LocalIsoResult,
    MAX_DENSE_DIM,
    RadiusVerdict,
    WeightedGraph,
    ball,
    default_radius_bound,
    invert_word,
    local_iso_check,
    materialize,
    orbit,
    orbital_graph,
    parse_word,
    positive_element_graph,
    rayleigh_transfer,
    shift_counterexample_report,
    spectra_compare_orbits,
    spectrum,
    word_str,
)
import wgraph.operator
import wgraph.orbital
from wgraph.cli import main
from wgraph.fileio import ActionSpec, write_action, write_element
from wgraph.operator import _matvec
from wgraph.orbital import _ball_code, _first_match


def test_word_parsing_and_inversion():
    assert parse_word("a a' b") == ("a", "a'", "b")
    assert parse_word("e") == ()
    assert word_str(()) == "e"
    assert word_str(("a", "b'")) == "a b'"
    assert invert_word(("a", "b'")) == ("b", "a'")
    assert invert_word(invert_word(("a", "b'", "c"))) == ("a", "b'", "c")
    with pytest.raises(ActionError):
        parse_word("a e")
    with pytest.raises(ActionError):
        parse_word("a''")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["a", "a'", "b", "b'", "c"]), max_size=6))
def test_property_word_inversion_involutive(tokens):
    word = tuple(tokens)
    assert invert_word(invert_word(word)) == word
    assert parse_word(word_str(word)) == word


def test_group_action_validation():
    with pytest.raises(ActionError):
        GroupAction((), {})
    with pytest.raises(ActionError):
        GroupAction(("p", "p"), {})
    with pytest.raises(ActionError):
        GroupAction(("p", "q"), {"a": (0, 0)})
    with pytest.raises(ActionError):
        GroupAction(("p", "q"), {"e": (1, 0)})
    with pytest.raises(ActionError):
        GroupAction(("p", "q"), {"a'": (1, 0)})


@pytest.mark.parametrize("call, error, message", [
    (lambda: GroupAction(("p", "q r"), {}), ActionError, "point id 'q r' is empty or contains whitespace"),
    (lambda: GroupAction.from_mealy(ODOMETER_TRANSITIONS, ["0", "1", "0"], 2), ActionError,
     "alphabet must be nonempty without repeats"),
    (lambda: GroupAction.from_mealy(ODOMETER_TRANSITIONS, ["0", "10"], 2), ActionError,
     "alphabet letters must be single characters"),
    (lambda: GroupAction.from_mealy(ODOMETER_TRANSITIONS, ["0", "1"], 0), ActionError, "level must be at least 1"),
    (lambda: orbit(odometer_action(2), "00", []), ActionError, "orbit needs at least one word"),
    (lambda: orbital_graph(odometer_action(2), "00", GroupAlgebraElement({})), ActionError,
     "cannot build the orbital graph of the zero element"),
    (lambda: ball(orbital_graph(odometer_action(2), "00", adjacency_element()), "00", -1), ValueError,
     "radius must be nonnegative"),
], ids=["point with whitespace", "repeated letter", "two-character letter", "level 0", "orbit of no words",
        "zero element graph", "negative ball radius"])
def test_action_and_orbit_refusals_name_their_fault(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message


def test_words_act_rightmost_token_first():
    act = GroupAction(("0", "1", "2"), {"a": (1, 2, 0), "b": (1, 0, 2)})
    # (ab)(x) = a(b(x)): b swaps 0,1 then a rotates
    for word, image in [(("a", "b"), [2, 1, 0]), (("b", "a"), [0, 2, 1]), (("a", "a'"), [0, 1, 2]),
                        (("a'",), [2, 0, 1]), ((), [0, 1, 2])]:
        assert act._word_image(word).tolist() == image, word
        assert [reference_act_index(act, word, i) for i in range(3)] == image, word


def test_word_images_equal_the_reference_on_random_actions():
    rng = np.random.default_rng(4242)
    seen = set()
    for _ in range(40):
        act = random_finite_action(rng)
        tokens = [g + p for g in act.generator_names() for p in ("", "'")]
        for _ in range(10):
            word = tuple(tokens[int(i)] for i in rng.integers(len(tokens), size=int(rng.integers(0, 7))))
            if len(word) > 1 and rng.random() < 0.3:
                word = word[:1] * len(word)  # one token repeated
            want = [reference_act_index(act, word, i) for i in range(len(act.points))]
            assert act._word_image(word).tolist() == want, word
            seen |= {"empty"} if not word else set()
            seen |= {"inverse"} if any(t.endswith("'") for t in word) else set()
            seen |= {"repeated"} if len(set(word)) < len(word) else set()
    assert seen == {"empty", "inverse", "repeated"}


def test_odometer_action_is_a_full_cycle():
    for level in (1, 2, 3):
        act = odometer_action(level)
        n = 2**level
        assert len(act.points) == n
        seen = set()
        image, p = act._word_image(("a",)), 0
        for _ in range(n):
            seen.add(p)
            p = int(image[p])
        assert len(seen) == n and p == 0


def test_mealy_validation_and_cap():
    with pytest.raises(DimensionCapError):
        GroupAction.from_mealy(ODOMETER_TRANSITIONS, ["0", "1"], 12)
    broken = {"a": {"0": ("1", "a"), "1": ("1", "a")}}
    with pytest.raises(ActionError):
        GroupAction.from_mealy(broken, ["0", "1"], 2)
    dangling = {"a": {"0": ("1", "zz"), "1": ("0", "a")}}
    with pytest.raises(ActionError):
        GroupAction.from_mealy(dangling, ["0", "1"], 2)


def test_element_drops_zero_terms():
    e = GroupAlgebraElement({("a",): 1.0, ("b",): 0.0})
    assert e.support() == (("a",),)
    assert not GroupAlgebraElement.from_pairs([(("a",), 1.0), (("a",), -1.0)])
    combined = GroupAlgebraElement.from_pairs([(("a",), 1.0), (("a",), 2.0)])
    assert combined.coefficient(("a",)) == 3.0


def test_words_with_an_unknown_generator_are_refused():
    act = GroupAction(("0", "1"), {"a": (1, 0)})
    for word in (("b",), ("a", "b'")):
        with pytest.raises(ActionError, match="^unknown generator 'b'$"):
            orbit(act, "0", [word])


def test_orbit_of_trivial_action_is_a_singleton():
    act = GroupAction(("p", "q"), {"a": (0, 1)})
    assert orbit(act, "p", [("a",)]) == ("p",)


def test_orbit_respects_invariant_subsets():
    act = GroupAction(("p", "q", "r", "s"), {"a": (1, 0, 3, 2)})
    assert orbit(act, "p", [("a",)]) == ("p", "q")


def test_orbit_of_odometer_is_everything():
    act = odometer_action(3)
    assert set(orbit(act, "000", [("a",)])) == set(act.points)


def test_orbital_graph_of_identity_element_is_identity_operator():
    act = odometer_action(2)
    e = GroupAlgebraElement({(): 1.0})
    og = orbital_graph(act, "00", e)
    assert np.array_equal(materialize(og.graph), np.eye(1))
    assert og.graph.vertices == ("00",)


def test_orbital_graph_matches_circulant_spectrum():
    for level in (2, 3):
        act = odometer_action(level)
        og = orbital_graph(act, "0" * level, adjacency_element())
        eig = np.linalg.eigvalsh(materialize(og.graph))
        assert np.max(np.abs(np.sort(eig) - circulant_spectrum(2**level))) <= 1e-10


def test_orbital_graph_operator_is_weighted_permutation_sum():
    rng = np.random.default_rng(19)
    for _ in range(20):
        act = random_finite_action(rng)
        elem = random_element(rng, act.generator_names())
        root = act.points[0]
        og = orbital_graph(act, root, elem)
        pts = og.graph.vertices
        pos = {p: i for i, p in enumerate(pts)}
        expected = np.zeros((len(pts), len(pts)), dtype=complex)
        for word in elem.support():
            coeff = elem.coefficient(word)
            for z in pts:
                expected[pos[act.points[reference_act_index(act, word, act.point_index(z))]], pos[z]] += coeff
        assert np.array_equal(materialize(og.graph), expected)


def test_orbital_graph_labels_are_deterministic_per_vertex():
    act = odometer_action(3)
    og = orbital_graph(act, "000", adjacency_element())
    for v in og.graph.vertices:
        out_arcs = np.flatnonzero(og.graph.source == og.graph.vertex_index(v)).tolist()
        out_words = sorted(og.labels[k] for k in out_arcs if k in og.labels)
        in_words = sorted(
            og.labels[k] for k, a in enumerate(og.graph.arcs)
            if a.target == v and k in og.labels
        )
        assert out_words == sorted(og.alphabet)
        assert in_words == sorted(og.alphabet)


def test_default_radius_bound_values():
    assert default_radius_bound(adjacency_element()) == 4.0
    assert default_radius_bound(GroupAlgebraElement({("a",): 3.0})) == 6.0
    with pytest.raises(ActionError):
        default_radius_bound(GroupAlgebraElement({}))


def test_default_radius_bound_dominates_spectral_radius():
    rng = np.random.default_rng(29)
    for _ in range(50):
        act = random_finite_action(rng)
        elem = random_element(rng, act.generator_names())
        og = orbital_graph(act, act.points[0], elem)
        rho = float(np.max(np.abs(np.linalg.eigvals(materialize(og.graph)))))
        assert default_radius_bound(elem) >= 2 * rho - 1e-9


def test_ball_examples_on_eight_cycle():
    og = orbital_graph(odometer_action(3), "000", adjacency_element())
    b0 = ball(og, "000", 0)
    assert b0.graph.vertices == ("000",)
    assert all(a.source == a.target for a in b0.graph.arcs)
    b2 = ball(og, "000", 2)
    assert b2.graph.order == 5
    labeled = [k for k in range(len(b2.graph.arcs)) if k in b2.labels]
    assert len(labeled) == 8  # 4 labeled edges of a 5-path, both directions
    bfull = ball(og, "000", og.diameter())
    assert bfull.graph.order == 8


def test_local_iso_identical_graphs_match_identically():
    og = orbital_graph(odometer_action(3), "000", adjacency_element())
    res = local_iso_check(og, og, 4)
    assert all(v.ok for v in res.radii)
    assert res.max_ok_radius == 4
    assert res.radii[2].x_matches["000"] is not None


def test_local_iso_alphabet_mismatch_raises():
    og = orbital_graph(odometer_action(3), "000", adjacency_element())
    other = orbital_graph(odometer_action(3), "000", GroupAlgebraElement({("a",): 1.0}))
    with pytest.raises(ActionError):
        local_iso_check(og, other, 1)


def test_local_iso_detects_label_swap_at_radius_one():
    pts = ("0", "1", "2", "3")
    four_cycle = (1, 2, 3, 0)
    double_swap = (2, 3, 0, 1)
    elem = GroupAlgebraElement({("a",): 1.0, ("b",): 1.0})
    gx = orbital_graph(GroupAction(pts, {"a": four_cycle, "b": double_swap}), "0", elem)
    gy = orbital_graph(GroupAction(pts, {"a": double_swap, "b": four_cycle}), "0", elem)
    res = local_iso_check(gx, gy, 2)
    assert res.radii[0].ok
    assert not res.radii[1].ok
    assert res.max_ok_radius == 0


def test_local_iso_of_odometer_levels_saturates_at_half_cycle():
    g3 = orbital_graph(odometer_action(3), "000", adjacency_element())
    g4 = orbital_graph(odometer_action(4), "0000", adjacency_element())
    res = local_iso_check(g3, g4, 5)
    assert [v.ok for v in res.radii] == [True, True, True, True, False, False]
    assert res.max_ok_radius == 3  # floor((8-1)/2): balls stay labeled paths


def repermuted(rng: np.random.Generator, act: GroupAction) -> GroupAction:
    """The same permutations handed to the generators in a shuffled order,
    on randomly relabeled points."""
    names = act.generator_names()
    shuffled = [names[i] for i in rng.permutation(len(names))]
    relabel = [int(i) for i in rng.permutation(len(act.points))]
    perms = {}
    for name, source in zip(names, shuffled):
        perm = [0] * len(act.points)
        for i, j in enumerate(act.perms[source]):
            perm[relabel[i]] = relabel[j]
        perms[name] = tuple(perm)
    return GroupAction(act.points, perms)


def test_local_iso_matches_pairwise_reference_matcher():
    rng = np.random.default_rng(1207)
    kinds = {"equal": 0, "repermuted": 0}
    failing = late = passing = 0
    for case in range(120):
        act_x = random_finite_action(rng, max_points=10)
        kind = "equal" if case % 2 else "repermuted"
        act_y = act_x if kind == "equal" else repermuted(rng, act_x)
        elem = random_element(rng, act_x.generator_names())
        x, y = (act_x.points[int(i)] for i in rng.integers(0, len(act_x.points), size=2))
        gx = orbital_graph(act_x, x, elem)
        gy = orbital_graph(act_y, y, elem)
        got = local_iso_check(gx, gy, 5)
        assert got.radii == reference_local_iso(gx, gy, 5).radii, (case, kind)
        for v in got.radii:
            for vx, vy in v.x_matches.items():
                if vy is None:
                    continue
                code_x, order_x = _ball_code(gx, vx, v.radius)
                code_y, order_y = _ball_code(gy, vy, v.radius)
                assert code_x == code_y
                assert dict(zip(order_x, order_y)) == reference_ball_iso(gx, vx, gy, vy, v.radius)
        kinds[kind] += 1
        failing += got.max_ok_radius < 5
        late += 0 <= got.max_ok_radius < 5
        passing += got.max_ok_radius == 5
    assert all(kinds.values())
    assert failing >= 10 and late >= 5 and passing >= 10


def test_ball_codes_differ_exactly_when_reference_finds_no_isomorphism():
    rng = np.random.default_rng(1208)
    for _ in range(30):
        act = random_finite_action(rng, max_points=8)
        elem = random_element(rng, act.generator_names())
        gx = orbital_graph(act, act.points[0], elem)
        gy = orbital_graph(repermuted(rng, act), act.points[0], elem)
        for radius in range(4):
            for vx in gx.graph.vertices:
                for vy in gy.graph.vertices:
                    same = _ball_code(gx, vx, radius)[0] == _ball_code(gy, vy, radius)[0]
                    assert same == (reference_ball_iso(gx, vx, gy, vy, radius) is not None)


def test_grigorchuk_orbits_are_locally_indistinguishable():
    act = GroupAction.from_mealy(GRIGORCHUK_TRANSITIONS, ["0", "1"], 5)
    elem = GroupAlgebraElement({(g,): 1.0 for g in "abcd"})
    comp = spectra_compare_orbits(act, act, "00000", "10110", elem)
    assert comp.orbit_size_x == comp.orbit_size_y == 32
    assert comp.saturated
    assert comp.hausdorff <= 1e-12
    assert comp.graph_x.root == "00000" and comp.graph_y.root == "10110"
    assert comp.graph_x.transfer_reach == 1


def test_transfer_reach_is_longest_label_word_at_least_one():
    act = odometer_action(3)
    assert orbital_graph(act, "000", GroupAlgebraElement({(): 1.0})).transfer_reach == 1
    two = GroupAlgebraElement({("a", "a"): 1.0, ("a'",): 1.0})
    assert orbital_graph(act, "000", two).transfer_reach == 2


def test_positive_element_graph_scalar_example():
    act = odometer_action(2)
    e = GroupAlgebraElement({(): 1.0})
    og = orbital_graph(act, "00", e)
    d = materialize(positive_element_graph(og, e, 0.0, 2.0))
    assert np.allclose(d, 0.75 * np.eye(1), atol=1e-15)


def test_positive_element_graph_hits_one_at_eigenvalues():
    og = orbital_graph(odometer_action(3), "000", adjacency_element())
    m = materialize(og.graph)
    radius = default_radius_bound(adjacency_element())
    for alpha in np.linalg.eigvalsh(m):
        d = materialize(positive_element_graph(og, adjacency_element(), alpha, radius))
        eig = np.linalg.eigvalsh(d)
        assert np.min(np.abs(eig - 1.0)) <= 1e-9
        assert eig.min() >= -1e-9 and eig.max() <= 1 + 1e-9


def test_positive_element_graph_random_elements_stay_in_unit_interval():
    rng = np.random.default_rng(41)
    act = odometer_action(3)
    for _ in range(10):
        elem = random_element(rng, ("a",))
        og = orbital_graph(act, "000", elem)
        radius = default_radius_bound(elem)
        alpha = complex(rng.uniform(-radius / 2, radius / 2))
        eig = np.linalg.eigvalsh(materialize(positive_element_graph(og, elem, alpha, radius)))
        assert eig.min() >= -1e-9 and eig.max() <= 1 + 1e-9


def test_positive_element_graph_rejects_bad_parameters():
    og = orbital_graph(odometer_action(3), "000", adjacency_element())
    with pytest.raises(ValueError):
        positive_element_graph(og, adjacency_element(), 0.0, 3.0)  # radius below bound
    with pytest.raises(ValueError):
        positive_element_graph(og, adjacency_element(), 3.0, 4.0)  # |alpha| > R/2
    with pytest.raises(ActionError):
        positive_element_graph(og, GroupAlgebraElement({("b",): 1.0}), 0.0, 4.0)


def transfer_setup():
    g3 = orbital_graph(odometer_action(3), "000", adjacency_element())
    g4 = orbital_graph(odometer_action(4), "0000", adjacency_element())
    radius = default_radius_bound(adjacency_element())

    def builder(g):
        return positive_element_graph(g, adjacency_element(), 0.5, radius)

    return g3, g4, builder


def _odometer_graph(level=3):
    return orbital_graph(odometer_action(level), "0" * level, adjacency_element())


@pytest.mark.parametrize("call, error, name", [
    (lambda: GroupAction.from_mealy(ODOMETER_TRANSITIONS, "01", 2.0), ActionError, "level"),
    (lambda: local_iso_check(_odometer_graph(), _odometer_graph(4), 1.5), ValueError, "max_radius"),
    (lambda: spectra_compare_orbits(odometer_action(3), odometer_action(3), "000", "011", adjacency_element(),
                                    max_radius=1.5), ValueError, "max_radius"),
    (lambda: shift_counterexample_report(trials=2.0), ValueError, "trials"),
    (lambda: shift_counterexample_report(depth=2.0), ValueError, "depth"),
    (lambda: shift_counterexample_report(seed=2.0), ValueError, "seed"),
    (lambda: ball(_odometer_graph(), "000", 1.5), ValueError, "radius"),
    (lambda: rayleigh_transfer(*transfer_setup(), FinSuppVector.delta("000"), 0.5, ("000", "0000")), ValueError,
     "support_radius"),
], ids=["from_mealy", "local_iso_check", "spectra_compare_orbits", "shift_trials", "shift_depth", "shift_seed",
        "ball", "rayleigh_transfer"])
def test_entry_points_refuse_a_non_integer_argument(call, error, name):
    """A float is refused with the error of a bad value, never truncated: a radius of 1.5 would build
    a ball of radius 1, and a support radius of 0.5 would code balls one deeper than it builds them."""
    with pytest.raises(error, match=f"^{name} must be an int, got "):
        call()


def test_rayleigh_transfer_zero_vector():
    g3, g4, builder = transfer_setup()
    match = local_iso_check(g3, g4, 2).radii[2].x_matches["000"]
    vx, vy = rayleigh_transfer(g3, g4, builder, FinSuppVector({}), 0, ("000", match))
    assert vx == 0.0 and vy == 0.0


def test_rayleigh_transfer_delta_matches_diagonal():
    g3, g4, builder = transfer_setup()
    match = local_iso_check(g3, g4, 2).radii[2].x_matches["000"]
    vx, vy = rayleigh_transfer(g3, g4, builder, FinSuppVector.delta("000"), 0, ("000", match))
    assert vx == pytest.approx(vy, abs=1e-15)
    d3 = materialize(builder(g3))
    i = g3.graph.vertex_index("000")
    assert vx == pytest.approx(d3[i, i].real, abs=1e-12)


def test_rayleigh_transfer_guards_preconditions():
    g3, g4, builder = transfer_setup()
    match = local_iso_check(g3, g4, 4).radii[2].x_matches["000"]
    far = [v for v in g3.graph.vertices if g3.distances("000").get(v, 99) == 3][0]
    with pytest.raises(ActionError):
        rayleigh_transfer(g3, g4, builder, FinSuppVector.delta(far), 1, ("000", match))
    with pytest.raises(ActionError):
        # support radius 3 forces a radius-4 ball match, which C8 vs C16 lacks
        rayleigh_transfer(g3, g4, builder, FinSuppVector.delta("000"), 3, ("000", match))


def test_rayleigh_transfer_equal_on_ball_supported_vectors():
    g3, g4, builder = transfer_setup()
    match = local_iso_check(g3, g4, 3).radii[3].x_matches["000"]
    support = [v for v, d in g3.distances("000").items() if d <= 2]
    rng = np.random.default_rng(47)
    for _ in range(20):
        vec = FinSuppVector(
            [(v, complex(rng.normal(), rng.normal())) for v in support]
        )
        vx, vy = rayleigh_transfer(g3, g4, builder, vec, 2, ("000", match))
        assert abs(vx - vy) <= 1e-12


def test_rayleigh_transfer_equals_the_whole_orbit_forms_bit_for_bit():
    """The transfer builds its operators on two balls; each value is the quadratic form of
    the operator built on the whole orbit, to the last bit, as the name-keyed product and
    inner product of ``reference_form`` sum it."""
    rng = np.random.default_rng(2718)
    for case in range(60):
        act = random_finite_action(rng, max_points=12)
        names = act.generator_names()
        elem = random_element(rng, names) if case % 2 else _random_element(rng, names)
        # the same action on relabeled points: an isomorphic orbit whose arcs come in another order
        relabel = [int(i) for i in rng.permutation(len(act.points))]
        perms = {name: tuple(relabel[perm[i]] for i in np.argsort(relabel).tolist())
                 for name, perm in act.perms.items()}
        x = act.points[int(rng.integers(len(act.points)))]
        gx = orbital_graph(act, x, elem)
        gy = orbital_graph(GroupAction(act.points, perms), act.points[relabel[act.point_index(x)]], elem)
        radius = default_radius_bound(elem)
        centre = complex(unit_disk(rng)) * radius / 2

        def builder(g):
            return positive_element_graph(g, elem, centre, radius)

        support_radius = case % 3
        vx = gx.graph.vertices[int(rng.integers(len(gx.graph.vertices)))]
        code, order_x = _ball_code(gx, vx, support_radius + gx.transfer_reach)
        vy, order_y = next((v, order) for v in gy.graph.vertices
                           for c, order in [_ball_code(gy, v, support_radius + gx.transfer_reach)] if c == code)
        near = ball(gx, vx, support_radius).graph.vertices
        keep = rng.random(len(near)) < 0.7
        vec = FinSuppVector({v: complex(*rng.normal(size=2)) for v, k in zip(near, keep.tolist()) if k})
        mapped = FinSuppVector({dict(zip(order_x, order_y))[k]: c for k, c in vec.items()})
        got = rayleigh_transfer(gx, gy, builder, vec, support_radius, (vx, vy))
        assert got == (reference_form(builder(gx), vec), reference_form(builder(gy), mapped)), case


def test_rayleigh_transfer_builds_its_operators_within_the_arc_budget_of_the_balls(monkeypatch, tmp_path, capsys):
    """The deficiency graphs of the two balls fit an arc budget that those of the whole
    orbits exceed: the transfer and the orbital command then succeed with unchanged results."""
    act, elem = odometer_action(6), adjacency_element()
    gx, gy = orbital_graph(act, "000000", elem), orbital_graph(act, "101101", elem)
    radius = default_radius_bound(elem)

    def builder(g):
        return positive_element_graph(g, elem, 0.5, radius)

    vec = FinSuppVector.delta("000000")
    match = ("000000", local_iso_check(gx, gy, 1).radii[1].x_matches["000000"])
    want = rayleigh_transfer(gx, gy, builder, vec, 0, match)
    act_path, elt_path = _write_inputs(tmp_path, ODOMETER_TRANSITIONS, elem)
    argv = ["orbital", "--action", act_path, "--element", elt_path, "--x", "000000", "--y", "101101", "--level", "6"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    # 64 points of degree 3 once a loop is added: 576 composed arcs on the orbit, 17 on a ball of 3
    budget = max(len(gx.graph.weight), len(builder(ball(gx, "000000", 1)).weight))
    assert budget < 576
    monkeypatch.setattr(wgraph.operator, "MAX_ARCS", budget)
    with pytest.raises(DimensionCapError, match="composition would have 576 arcs"):
        builder(gx)
    assert rayleigh_transfer(gx, gy, builder, vec, 0, match) == want
    assert main(argv) == 0
    assert capsys.readouterr().out == report and "TRANSFER: ok" in report


def test_matvec_on_orbital_graph_matches_dense():
    og = orbital_graph(odometer_action(3), "000", adjacency_element())
    dense = np.zeros(8, dtype=complex)
    dense[[og.graph.vertex_index("000"), og.graph.vertex_index("001")]] = [1.0, -2j]
    assert np.array_equal(_matvec(og.graph, dense), materialize(og.graph) @ dense)


def test_spectra_compare_same_orbit_distance_zero():
    act = odometer_action(3)
    comp = spectra_compare_orbits(act, act, "000", "011", adjacency_element())
    assert comp.hausdorff <= 1e-12
    assert comp.saturated
    assert all(c.in_x.member and c.in_y.member for c in comp.cross_checks)


def test_spectra_compare_adjacent_levels_reports_finite_radius():
    comp = spectra_compare_orbits(
        odometer_action(3), odometer_action(4), "000", "0000", adjacency_element()
    )
    assert comp.orbit_size_x == 8 and comp.orbit_size_y == 16
    assert comp.radius == 4.0
    assert comp.max_common_radius == 3
    assert not comp.saturated
    assert comp.hausdorff > 0.1  # finite truncations genuinely differ
    # every level-3 eigenvalue is also a level-4 eigenvalue (even harmonics)
    assert all(c.in_x.member and c.in_y.member for c in comp.cross_checks)


def test_spectrum_helper_on_orbital_matches_closed_form():
    og = orbital_graph(odometer_action(4), "0000", adjacency_element())
    s = spectrum(materialize(og.graph))
    assert np.max(np.abs(s.as_array() - circulant_spectrum(16))) <= 1e-10


def _prefixed(g: LabeledOrbitalGraph, prefix: str) -> LabeledOrbitalGraph:
    """The same labeled graph with every vertex renamed ``prefix + v``; the
    vertex order, and so every first match, is unchanged."""
    graph = WeightedGraph(tuple(prefix + v for v in g.graph.vertices), g.graph.source,
                          g.graph.target, g.graph.weight, g.graph.pair)
    return LabeledOrbitalGraph(graph, g.labels, prefix + g.root, g.alphabet)


def _unprefixed(result: LocalIsoResult, prefix: str) -> LocalIsoResult:
    def strip(v):
        return None if v is None else v[len(prefix):]

    return LocalIsoResult(tuple(
        RadiusVerdict(v.radius, v.ok, {x: strip(y) for x, y in v.x_matches.items()},
                      {strip(y): x for y, x in v.y_matches.items()})
        for v in result.radii
    ))


@pytest.mark.parametrize("case", ["odometer", "grigorchuk"])
def test_same_orbit_reuses_codes_with_an_equal_result(case, monkeypatch):
    if case == "odometer":
        act, elem, x, y = odometer_action(5), adjacency_element(), "00000", "10110"
    else:
        act = GroupAction.from_mealy(GRIGORCHUK_TRANSITIONS, ["0", "1"], 5)
        elem = GroupAlgebraElement({(w,): 1.0 for w in "abcd"})
        x, y = "00000", "01101"
    gx, gy = orbital_graph(act, x, elem), orbital_graph(act, y, elem)
    assert gx.graph.vertices == gy.graph.vertices and gx.graph != gy.graph  # arcs listed per root
    cap = max(gx.diameter(), gy.diameter()) + 1
    # a renamed copy has the same codes but not the same adjacency, so it takes the long way
    without = _unprefixed(local_iso_check(gx, _prefixed(gy, "y"), cap), "y")
    coded = _counting(monkeypatch, "_ball_code")
    with_shortcut = local_iso_check(gx, gy, cap)
    assert coded == []  # the identity passes every radius, so the search codes no ball
    monkeypatch.undo()
    assert with_shortcut == without
    assert with_shortcut.max_ok_radius == cap


def _counting(monkeypatch, name):
    """Replace ``wgraph.orbital.<name>`` by a wrapper that records each call."""
    calls = []
    real = getattr(wgraph.orbital, name)
    monkeypatch.setattr(wgraph.orbital, name, lambda *a: calls.append(a) or real(*a))
    return calls


def _grigorchuk(level):
    act = GroupAction.from_mealy(GRIGORCHUK_TRANSITIONS, ["0", "1"], level)
    return act, GroupAlgebraElement({(w,): 1.0 for w in "abcd"})


def _all_bfs_diameter(g):
    """The diameter as one breadth-first search from every vertex finds it."""
    return max(max(g.distances(v).values()) for v in g.graph.vertices)


def test_diameter_equals_the_largest_distance_from_every_vertex():
    graphs = [orbital_graph(odometer_action(k), "0" * k, adjacency_element()) for k in (1, 2, 3, 5)]
    for level in range(1, 7):  # paths, where the double sweep alone decides
        act, elem = _grigorchuk(level)
        graphs.append(orbital_graph(act, "0" * level, elem))
    rng = np.random.default_rng(9090)
    intransitive = 0
    for _ in range(60):
        act = random_finite_action(rng)
        elem = random_element(rng, list(act.generator_names()))
        for point in act.points[:3]:
            g = orbital_graph(act, point, elem)
            intransitive += g.graph.order < len(act.points)
            graphs += [g, ball(g, point, 1)]
    assert intransitive
    for g in graphs:
        assert g.diameter() == _all_bfs_diameter(g)


def test_same_adjacency_codes_balls_only_when_a_match_is_read(monkeypatch):
    act, elem = _grigorchuk(5)
    gx, gy = orbital_graph(act, "00000", elem), orbital_graph(act, "01101", elem)
    n, cap = len(gx.graph.vertices), gx.diameter() + 1
    want = reference_local_iso(gx, gy, 4).radii
    coded = _counting(monkeypatch, "_ball_code")
    res = local_iso_check(gx, gy, cap)
    assert len(coded) == 0
    assert res.max_ok_radius == cap and len(res.radii) == cap + 1 and all(v.ok for v in res.radii)
    x_matches = res.radii[4].x_matches
    assert len(x_matches) == n and list(x_matches) == list(gx.graph.vertices)
    assert len(coded) == 0
    ys = gy.graph.vertices
    for v in ("00000", "01101", "11111"):
        coded.clear()
        match = x_matches[v]
        assert match == want[4].x_matches[v]
        # one read codes v's ball, then the y balls in vertex order up to its match
        assert coded == [(gx, v, 4)] + [(gy, w, 4) for w in ys[:ys.index(match) + 1]]
    assert x_matches == want[4].x_matches
    assert res.radii[4].y_matches == want[4].y_matches
    with pytest.raises(TypeError):
        x_matches["00000"] = None  # read-only


def test_match_maps_are_read_only_mappings_over_their_own_vertices(monkeypatch):
    act, elem, x, y = _two_orbits(4)
    gx, gy = orbital_graph(act, x, elem), orbital_graph(act, y, elem)
    want = reference_local_iso(gx, gy, 2).radii[2]
    verdict = local_iso_check(gx, gy, 2).radii[2]
    x_matches = verdict.x_matches
    assert isinstance(x_matches, Mapping)
    coded = _counting(monkeypatch, "_ball_code")
    assert x in x_matches and y not in x_matches and y in verdict.y_matches and x not in verdict.y_matches
    assert x_matches.get(y) is None and x_matches.get(y, "absent") == "absent"
    with pytest.raises(KeyError):
        x_matches[y]  # a vertex of the other graph
    assert coded == []  # a key outside the map codes no ball
    assert x_matches.get(x) == x_matches[x] == want.x_matches[x] is not None
    with pytest.raises(TypeError):
        x_matches[x] = y
    with pytest.raises(TypeError):
        del x_matches[x]


class _TrackedCode:
    """A ball code that a weak reference can follow, to see whether any
    code outlives the call that made it."""

    __slots__ = ("code", "__weakref__")

    def __init__(self, code):
        self.code = code

    def __eq__(self, other):
        return self.code == other.code

    def __hash__(self):
        return hash(self.code)


def test_lazy_matches_code_each_radius_once_and_keep_no_codes(monkeypatch):
    act, elem = _grigorchuk(4)
    gx, gy = orbital_graph(act, "0000", elem), _prefixed(orbital_graph(act, "1011", elem), "y")
    n = len(gx.graph.vertices)
    want = reference_local_iso(gx, gy, 5).radii
    codes = []
    real = wgraph.orbital._ball_code

    def tracked_ball_code(g, v, r):
        code, order = real(g, v, r)
        codes.append(weakref.ref(tracked := _TrackedCode(code)))
        return tracked, order

    monkeypatch.setattr(wgraph.orbital, "_ball_code", tracked_ball_code)
    res = local_iso_check(gx, gy, 5)
    probes = len(_search_probes(6, 5))  # the cap 5 alone, which passes
    assert len(codes) == 2 * n * probes and res.max_ok_radius == 5
    ys = gy.graph.vertices
    assert dict(res.radii[2].x_matches) == want[2].x_matches
    # a whole map codes each vertex's ball and the y balls up to its match, one read at a time
    assert len(codes) == 2 * n * probes + sum(1 + ys.index(w) + 1 for w in want[2].x_matches.values())
    assert dict(res.radii[2].y_matches) == want[2].y_matches
    assert dict(res.radii[3].x_matches) == want[3].x_matches
    gc.collect()
    assert all(ref() is None for ref in codes)  # while the result lives, no code does


def _search_probes(failed: int, cap: int, cap_known: bool = False) -> list:
    """The radii that the search for a first failure at ``failed`` (``cap + 1`` when none
    fails) codes: ``cap`` first unless it is known to fail uncoded, and only when it fails
    0, 1, 3, 7, ... below ``cap`` until one fails, then a bisection."""
    probes, lo, hi = ([] if cap_known else [cap]), -1, 0
    if failed > cap:
        return probes
    while hi < cap:
        probes.append(hi)
        if hi >= failed:
            break
        lo, hi = hi, min(2 * hi + 1, cap)
    while hi - lo > 1:
        probes.append(mid := (lo + hi) // 2)
        lo, hi = (mid, hi) if mid < failed else (lo, mid)
    return probes


def _assert_codes_only_the_search_probes(coded, gx, gy, cap, failed, cap_known=False):
    radii = [args[2] for args in coded]
    assert list(dict.fromkeys(radii)) == _search_probes(failed, cap, cap_known)  # each probe in turn
    assert len(radii) == (len(gx.graph.vertices) + len(gy.graph.vertices)) * len(set(radii))
    assert max(set(radii) - {cap}, default=-1) <= 2 * failed + 1
    assert len(set(radii)) <= 2 * math.ceil(math.log2(cap + 2)) + 2


def test_different_adjacency_codes_only_the_search_probes(monkeypatch):
    g3 = orbital_graph(odometer_action(3), "000", adjacency_element())
    g4 = orbital_graph(odometer_action(4), "0000", adjacency_element())
    relabeled = repermuted(np.random.default_rng(1209), odometer_action(4))
    g4_relabeled = orbital_graph(relabeled, "0000", adjacency_element())
    act, elem = _grigorchuk(6)
    # the same permutations under swapped names b <-> d, a different labeled graph
    swapped = GroupAction(act.points, {**act.perms, "b": act.perms["d"], "d": act.perms["b"]})
    gz, gz_swapped = orbital_graph(act, "000000", elem), orbital_graph(swapped, "000000", elem)
    # an 8-cycle and a 16-cycle: at the cap 9 each is the whole ball around its first vertex, so
    # the cap fails uncoded; at 3 and 5 the 16-cycle is not, and the cap is probed
    cases = ((g3, g4, 3, 3, False), (g3, g4, 5, 3, False), (g3, g4, 9, 3, True), (g4, g4_relabeled, 9, 9, False),
             (gz, gz_swapped, 65, 0, False))
    for gx, gy, cap, max_ok, cap_known in cases:
        want = reference_local_iso(gx, gy, min(cap, 5)).radii
        coded = _counting(monkeypatch, "_ball_code")
        res = local_iso_check(gx, gy, cap)
        _assert_codes_only_the_search_probes(coded, gx, gy, cap, max_ok + 1, cap_known)
        assert res.max_ok_radius == max_ok
        assert res.radii[:len(want)] == want
        monkeypatch.undo()


# fixes the first letter, so the roots 0...0 and 10...0 lie in two orbits of one action
TWO_ORBIT_TRANSITIONS = {
    "s": {"0": ("0", "a"), "1": ("1", "a")},
    "a": {"0": ("1", "e"), "1": ("0", "a")},
    "e": {"0": ("0", "e"), "1": ("1", "e")},
}


def _two_orbits(level):
    act = GroupAction.from_mealy(TWO_ORBIT_TRANSITIONS, ["0", "1"], level)
    return act, GroupAlgebraElement({("s",): 1.0, ("s'",): 1.0}), "0" * level, "1" + "0" * (level - 1)


def test_two_orbit_scan_codes_logarithmically_many_radii(monkeypatch):
    act, elem, x, y = _two_orbits(7)
    gx, gy = orbital_graph(act, x, elem), orbital_graph(act, y, elem)
    assert set(gx.graph.vertices).isdisjoint(gy.graph.vertices)
    cap = max(gx.diameter(), gy.diameter()) + 1
    coded = _counting(monkeypatch, "_ball_code")
    res = local_iso_check(gx, gy, cap)
    assert cap == 33 and res.max_ok_radius == cap
    assert {args[2] for args in coded} == {cap}  # a scan of radii 0, 1, 2, ... codes all 34
    _assert_codes_only_the_search_probes(coded, gx, gy, cap, cap + 1)
    monkeypatch.undo()
    assert res.radii[:4] == reference_local_iso(gx, gy, 3).radii


def test_repr_of_a_two_orbit_comparison_codes_no_ball(monkeypatch):
    act, elem, x, y = _two_orbits(4)
    comp = spectra_compare_orbits(act, act, x, y, elem)
    coded = _counting(monkeypatch, "_ball_code")
    assert "<8 matches, coded when read>" in repr(comp)
    assert coded == []
    matches = comp.local_iso.radii[1].x_matches
    read = dict(matches)
    assert len(read) == 8 and len(coded) > 8
    coded.clear()
    assert repr(matches) == "<8 matches, coded when read>"  # a read keeps nothing to show
    assert coded == []
    script = (
        "from wgraph import GroupAction, GroupAlgebraElement, spectra_compare_orbits\n"
        f"act = GroupAction.from_mealy({TWO_ORBIT_TRANSITIONS!r}, ['0', '1'], 4)\n"
        "elem = GroupAlgebraElement({('s',): 1.0, (\"s'\",): 1.0})\n"
        f"print(repr(spectra_compare_orbits(act, act, {x!r}, {y!r}, elem)))\n"
    )
    first, second = (subprocess.run([sys.executable, "-c", script], capture_output=True, check=True).stdout
                     for _ in range(2))
    assert first == second and b"coded when read" in first


def test_equal_operators_share_spectrum_diameter_and_cross_checks(monkeypatch):
    act = odometer_action(3)
    gx, gy = orbital_graph(act, "000", adjacency_element()), orbital_graph(act, "011", adjacency_element())
    assert materialize(gx.graph).tobytes() == materialize(gy.graph).tobytes()
    # one spectrum-and-verdicts call per distinct operator, each covering the whole x-spectrum
    member = _counting(monkeypatch, "_spectrum_and_verdicts")
    diameters = []
    real_diameter = LabeledOrbitalGraph.diameter
    monkeypatch.setattr(LabeledOrbitalGraph, "diameter",
                        lambda g: diameters.append(g) or real_diameter(g))
    comp = spectra_compare_orbits(act, act, "000", "011", adjacency_element())
    assert len(member) == 1 and len(diameters) == 1
    assert comp.spectrum_y == comp.spectrum_x and comp.saturated
    assert all(c.in_y == c.in_x for c in comp.cross_checks)

    del member[:], diameters[:]
    comp = spectra_compare_orbits(odometer_action(3), odometer_action(4), "000", "0000",
                                  adjacency_element())
    assert len(member) == 2 and len(diameters) == 2
    # the x-matrix is tested at its own spectrum, the y-matrix at the same 8 points
    assert member[0][1] is None and member[1][1] == comp.spectrum_x.values and len(comp.spectrum_x) == 8


def test_a_same_orbit_comparison_materializes_one_matrix(monkeypatch):
    act, elem = _grigorchuk(5)
    built = _counting(monkeypatch, "materialize")
    member = _counting(monkeypatch, "_spectrum_and_verdicts")
    comp = spectra_compare_orbits(act, act, "00000", "11111", elem)
    assert len(built) == len(member) == 1
    assert comp.spectrum_y is comp.spectrum_x and comp.saturated


def test_an_equal_matrix_on_another_adjacency_is_solved_again(monkeypatch):
    act, elem = _grigorchuk(5)
    # the same permutations under swapped names b <-> d: a different labeled graph, the same matrix
    swapped = GroupAction(act.points, {**act.perms, "b": act.perms["d"], "d": act.perms["b"]})
    gx, gy = orbital_graph(act, "00000", elem), orbital_graph(swapped, "00000", elem)
    assert materialize(gx.graph).tobytes() == materialize(gy.graph).tobytes()
    built = _counting(monkeypatch, "materialize")
    member = _counting(monkeypatch, "_spectrum_and_verdicts")
    comp = spectra_compare_orbits(act, swapped, "00000", "00000", elem)
    assert len(built) == len(member) == 2
    assert member[1][1] == comp.spectrum_x.values
    # the results of one shared operator: one spectrum, equal verdicts, nothing local past radius 0
    assert comp.spectrum_y == comp.spectrum_x and comp.hausdorff == 0.0
    assert all(c.in_y == c.in_x for c in comp.cross_checks)
    assert comp.max_common_radius == 0 and not comp.saturated


def test_a_non_finite_y_matrix_is_refused_after_the_x_spectrum(monkeypatch):
    act = _two_orbit_action()
    real = wgraph.orbital.materialize
    built = []

    def materialize_y_with_an_inf(graph):
        m = real(graph)
        if built:
            m[0, 0] = np.inf
        built.append(m)
        return m

    monkeypatch.setattr(wgraph.orbital, "materialize", materialize_y_with_an_inf)
    member = _counting(monkeypatch, "_spectrum_and_verdicts")
    with pytest.raises(ValueError, match="^spectrum: matrix has non-finite entries$"):
        spectra_compare_orbits(act, act, "p0", "q0", adjacency_element())
    assert len(built) == 2 and len(member) == 1


def _two_orbit_action():
    """Ten points in a 6-point orbit p0..p5 and a 4-point orbit q0..q3: ``a`` cycles each
    orbit and ``b`` swaps its first two points."""
    points = tuple(f"p{i}" for i in range(6)) + tuple(f"q{i}" for i in range(4))
    return GroupAction(points, {"a": (1, 2, 3, 4, 5, 0, 7, 8, 9, 6), "b": (1, 0, 2, 3, 4, 5, 7, 6, 8, 9)})


NON_NORMAL = GroupAlgebraElement({("a",): 1.0, ("b",): 0.5 + 0.25j})


def test_compare_orbits_bounds_and_tests_each_matrix_once(monkeypatch):
    """Outside the public spectrum and the dense tests, which check their own argument, each
    distinct matrix is bounded and tested for symmetry once."""
    inside, outside, public = [], [], []

    def nesting(name):
        real = getattr(wgraph.spectra, name)

        def nested(*args):
            inside.append(name)
            try:
                return real(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(wgraph.spectra, name, nested)

    def counting(name):
        real = getattr(wgraph.spectra, name)

        def counted(m):
            if not inside:
                outside.append((name, hash(m.tobytes())))
            elif inside == ["spectrum"]:
                public.append(name)
            return real(m)
        monkeypatch.setattr(wgraph.spectra, name, counted)

    nesting("spectrum")
    nesting("membership_by_deficiency")
    counting("matrix_norm_bound")
    counting("is_hermitian")
    two = _two_orbit_action()
    for act_x, act_y, x, y, elem, distinct, in_pair in (
        (odometer_action(3), odometer_action(3), "000", "011", adjacency_element(), 1, False),
        (odometer_action(3), odometer_action(4), "000", "0000", adjacency_element(), 2, False),
        (two, two, "p0", "q0", adjacency_element(), 2, False),
        (two, two, "p0", "q0", NON_NORMAL, 2, True),
        (two, two, "q0", "p0", NON_NORMAL, 2, True),
    ):
        del outside[:], public[:]
        spectra_compare_orbits(act_x, act_y, x, y, elem)
        for name in ("matrix_norm_bound", "is_hermitian"):
            matrices = [m for n, m in outside if n == name]
            assert len(matrices) == len(set(matrices)) == distinct, name
        # only the y-matrix of a non-Hermitian pair runs the public spectrum, beside its dense test
        assert sorted(public) == (["is_hermitian", "matrix_norm_bound"] if in_pair else [])


def _write_inputs(tmp_path, transitions, element):
    act_path, elt_path = str(tmp_path / "g.act"), str(tmp_path / "g.elt")
    write_action(ActionSpec("mealy", transitions=transitions, alphabet=("0", "1")), act_path)
    write_element(element, elt_path)
    return act_path, elt_path


def test_negative_max_radius_is_refused_before_any_graph_is_built(monkeypatch, tmp_path, capsys):
    built = _counting(monkeypatch, "orbital_graph")
    with pytest.raises(ValueError, match="max_radius must be nonnegative"):
        spectra_compare_orbits(odometer_action(3), odometer_action(3), "000", "011",
                               adjacency_element(), max_radius=-1)
    act_path, elt_path = _write_inputs(tmp_path, ODOMETER_TRANSITIONS, adjacency_element())
    code = main(["orbital", "--action", act_path, "--element", elt_path,
                 "--x", "000", "--y", "011", "--level", "3", "--radius", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "ERROR: max_radius must be nonnegative\n"
    assert built == []


def test_max_radius_past_the_dense_cap_is_refused_before_any_verdict_is_built(monkeypatch, tmp_path, capsys):
    # no orbit within the point cap has a diameter of MAX_DENSE_DIM, so no radius past it can pass
    message = f"max_radius {MAX_DENSE_DIM + 1} exceeds the dense cap {MAX_DENSE_DIM}"
    gx = orbital_graph(odometer_action(3), "000", adjacency_element())
    assert len(local_iso_check(gx, gx, MAX_DENSE_DIM).radii) == MAX_DENSE_DIM + 1
    built = _counting(monkeypatch, "orbital_graph")
    verdicts = _counting(monkeypatch, "RadiusVerdict")
    with pytest.raises(ValueError) as e:
        local_iso_check(gx, gx, MAX_DENSE_DIM + 1)
    assert str(e.value) == message
    with pytest.raises(ValueError) as e:
        spectra_compare_orbits(odometer_action(3), odometer_action(3), "000", "011",
                               adjacency_element(), max_radius=MAX_DENSE_DIM + 1)
    assert str(e.value) == message
    act_path, elt_path = _write_inputs(tmp_path, ODOMETER_TRANSITIONS, adjacency_element())
    code = main(["orbital", "--action", act_path, "--element", elt_path,
                 "--x", "000", "--y", "011", "--level", "3", "--radius", str(MAX_DENSE_DIM + 1)])
    assert code == 2
    assert capsys.readouterr().err == f"ERROR: {message}\n"
    assert built == [] and verdicts == []


def test_the_arc_budget_is_checked_before_the_orbit_is_searched(monkeypatch, tmp_path, capsys):
    element = GroupAlgebraElement({("a",): 1.0, ("a", "a"): 0.5})  # neither inverse is in the support
    act = odometer_action(3)
    # two words and their two inverses on 8 points: every arc of the transitive action is counted
    monkeypatch.setattr(wgraph.operator, "MAX_ARCS", 32)
    assert len(orbital_graph(act, "000", element).graph.weight) == 32

    def unsearched(*args):
        raise AssertionError("the orbit was searched before the arc budget was checked")

    monkeypatch.setattr(GroupAction, "_word_image", unsearched)
    monkeypatch.setattr(wgraph.operator, "MAX_ARCS", 31)
    message = "the orbital graph of 4 words and inverses on 8 points would have up to 32 arcs; the arc cap is 31"
    with pytest.raises(DimensionCapError) as e:
        orbital_graph(act, "000", element)
    assert str(e.value) == message
    # orbit() runs the same search over the same words, so it meets the same budget
    with pytest.raises(DimensionCapError) as e:
        orbit(act, "000", element.support())
    assert str(e.value) == message
    act_path, elt_path = _write_inputs(tmp_path, ODOMETER_TRANSITIONS, element)
    code = main(["orbital", "--action", act_path, "--element", elt_path, "--x", "000", "--y", "011", "--level", "3"])
    assert code == 2
    assert capsys.readouterr().err == f"ERROR: {message}\n"


@pytest.mark.parametrize("tol", [0.0, float("nan")])
def test_bad_tol_is_refused_before_any_graph_is_built(monkeypatch, tmp_path, capsys, tol):
    built = _counting(monkeypatch, "orbital_graph")
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        spectra_compare_orbits(odometer_action(3), odometer_action(3), "000", "011",
                               adjacency_element(), tol=tol)
    act_path, elt_path = _write_inputs(tmp_path, ODOMETER_TRANSITIONS, adjacency_element())
    code = main(["orbital", "--action", act_path, "--element", elt_path,
                 "--x", "000", "--y", "011", "--level", "3", "--tol", str(tol)])
    assert code == 2
    assert capsys.readouterr().err == f"ERROR: tol must be positive and finite, got {tol!r}\n"
    assert built == []


def test_cli_report_equals_the_one_from_the_reference_matcher(monkeypatch, tmp_path, capsys):
    act, elem = _grigorchuk(5)
    act_path, elt_path = _write_inputs(tmp_path, GRIGORCHUK_TRANSITIONS, elem)
    argv = ["orbital", "--action", act_path, "--element", elt_path,
            "--x", "00000", "--y", "10110", "--level", "5"]

    def reports():
        out = []
        for extra in ([], ["--json"]):
            code = main(argv + extra)
            out.append((code, capsys.readouterr().out))
        return out

    got = reports()
    cached = {}  # the reference takes seconds, so both reports share one run

    def reference(gx, gy, cap):
        key = (gx.root, gy.root, cap)
        if key not in cached:
            cached[key] = reference_local_iso(gx, gy, cap)
        return cached[key]

    monkeypatch.setattr(wgraph.orbital, "local_iso_check", reference)
    want = reports()
    assert len(cached) == 1
    assert got == want
    assert "LOCAL-ISO SATURATED: yes" in got[0][1] and "TRANSFER: ok" in got[0][1]


def test_cli_codes_only_the_transfer_radius(monkeypatch, tmp_path, capsys):
    act_path, elt_path = _write_inputs(tmp_path, ODOMETER_TRANSITIONS, adjacency_element())
    coded = _counting(monkeypatch, "_ball_code")
    code = main(["orbital", "--action", act_path, "--element", elt_path,
                 "--x", "00000", "--y", "10110", "--level", "5"])
    assert code == 0 and "TRANSFER: ok" in capsys.readouterr().out
    # x's ball and the first y ball, which matches it on the cycle, then the two balls
    # rayleigh_transfer compares
    assert {args[2] for args in coded} == {1} and len(coded) == 1 + 1 + 2


def test_the_transfer_match_is_the_local_iso_match_with_the_balls_up_to_it_coded(monkeypatch):
    rng = np.random.default_rng(3131)
    later = unmatched = 0
    for case in range(60):
        act_x = random_finite_action(rng, max_points=10)
        act_y = act_x if case % 2 else repermuted(rng, act_x)
        elem = random_element(rng, act_x.generator_names())
        x, y = (act_x.points[int(i)] for i in rng.integers(0, len(act_x.points), size=2))
        gx, gy = orbital_graph(act_x, x, elem), orbital_graph(act_y, y, elem)
        ys = gy.graph.vertices
        for v in local_iso_check(gx, gy, 3).radii:
            for vx in v.x_matches:  # empty past the first failing radius
                want = v.x_matches[vx]
                coded = _counting(monkeypatch, "_ball_code")
                assert _first_match(gx, gy, vx, v.radius) == want
                assert len(coded) == 1 + (len(ys) if want is None else ys.index(want) + 1)
                monkeypatch.undo()
                later += want is not None and want != ys[0]
                unmatched += want is None
    assert later > 100 and unmatched > 20


def test_orbit_holds_its_image_table_as_integers():
    # the 1,456 reduced words of length 1 to 6 and their inverses on 128 points: 372,736 (step,
    # point) pairs, which took 27 B each as Python lists of positions and take 4 as int32
    act, _ = _grigorchuk(7)
    words = [w for n in range(1, 7) for w in itertools.product("abcd", repeat=n)
             if all(x != y for x, y in zip(w, w[1:]))]
    tracemalloc.start()
    try:
        points = orbit(act, "0000000", words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words) == 1456 and len(points) == 128
    assert peak / (2 * len(words) * len(act.points)) < 12


def test_cli_codes_no_ball_when_the_transfer_is_skipped(monkeypatch, tmp_path, capsys):
    act_path, elt_path = _write_inputs(tmp_path, ODOMETER_TRANSITIONS, adjacency_element())
    coded = _counting(monkeypatch, "_ball_code")
    code = main(["orbital", "--action", act_path, "--element", elt_path,
                 "--x", "00000", "--y", "10110", "--level", "5", "--radius", "0"])
    out = capsys.readouterr().out
    assert code == 0 and "TRANSFER: skipped (no match at transfer radius)" in out
    assert coded == []  # radius 0 is below the transfer reach, so no match is read


def _assert_same_labeled_graph(got: LabeledOrbitalGraph, want: LabeledOrbitalGraph):
    assert got.graph.vertices == want.graph.vertices
    for name in ("source", "target", "weight", "pair"):
        a, b = getattr(got.graph, name), getattr(want.graph, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name  # bit for bit
    assert list(got.labels.items()) == list(want.labels.items())
    assert (got.root, got.alphabet) == (want.root, want.alphabet)


def _assert_graph_equals_reference(act: GroupAction, root: str, elem: GroupAlgebraElement, roots=None):
    """Orbit, graph arrays, labels, distances, diameter, balls and ball codes against
    the name-based references, from ``roots`` (default: every vertex)."""
    words = list(elem.support())
    assert orbit(act, root, words + words[:1]) == reference_orbit(act, root, words)
    g, want = orbital_graph(act, root, elem), reference_orbital_graph(act, root, elem)
    _assert_same_labeled_graph(g, want)
    adj = reference_adjacency(want)
    dist = {v: reference_distances(adj, v) for v in (want.graph.vertices if roots is None else roots)}
    if roots is None:
        assert g.diameter() == max(max(d.values()) for d in dist.values())
    for v, want_dist in dist.items():
        assert list(g.distances(v).items()) == list(want_dist.items())
        for radius in (0, 1, 2, 3):
            assert _ball_code(g, v, radius) == reference_ball_code(adj, v, radius)
            _assert_same_labeled_graph(ball(g, v, radius), reference_ball(want, want_dist, radius))


def _random_element(rng, names) -> GroupAlgebraElement:
    """Random words with complex coefficients, mixed with the empty word, inverse
    pairs, words equal to their own inverse and repeated words."""
    pairs = []
    for _ in range(int(rng.integers(1, 5))):
        word = tuple(names[rng.integers(len(names))] + ("'" if rng.random() < 0.5 else "")
                     for _ in range(int(rng.integers(1, 4))))
        kind = rng.integers(6)
        words = [(), word, invert_word(word), word + invert_word(word), word, word][kind:kind + 2]
        pairs += [(w, complex(rng.normal(), rng.normal()) if rng.random() < 0.7 else 1.0) for w in words]
    return GroupAlgebraElement.from_pairs(pairs)


def test_orbital_graphs_equal_the_name_based_reference_on_permutation_actions():
    rng = np.random.default_rng(1414)
    graphs = intransitive = unpaired = 0
    for _ in range(150):
        n = int(rng.integers(1, 13))
        points = tuple(f"p{int(i):02d}" for i in rng.permutation(40)[:n])  # not in name order
        names = ["a", "b", "c"][: int(rng.integers(1, 4))]
        act = GroupAction(points, {g: tuple(int(i) for i in rng.permutation(n)) for g in names})
        elem = _random_element(rng, names)
        for root in rng.choice(points, size=min(n, 3), replace=False):
            _assert_graph_equals_reference(act, str(root), elem)
            graphs += 1
            intransitive += len(orbit(act, str(root), elem.support())) < n
        unpaired += any(invert_word(w) not in elem.terms for w in elem.terms)
    assert graphs > 300 and intransitive > 50 and unpaired > 50


def _random_transducer(rng, letters: int, with_e: bool):
    alphabet = "xyz"[:letters]
    states = ["a", "b", "c", "d"][: int(rng.integers(1, 5))] + (["e"] if with_e else [])
    return alphabet, {
        s: {x: (alphabet[int(j)], states[int(rng.integers(len(states)))])
            for x, j in zip(alphabet, rng.permutation(letters))}
        for s in states
    }


def test_from_mealy_equals_the_letter_by_letter_reference():
    rng = np.random.default_rng(2828)
    for case in range(300):
        letters = int(rng.integers(1, 4))
        alphabet, transitions = _random_transducer(rng, letters, with_e=case % 2 == 0)
        top = max(k for k in range(1, 12) if letters**k <= MAX_DENSE_DIM)  # the point cap
        level = top if case % 50 == 0 else int(rng.integers(1, min(top, 5) + 1))
        act = GroupAction.from_mealy(transitions, alphabet, level)
        want = reference_from_mealy(transitions, alphabet, level)
        assert act.points == want.points and act.perms == want.perms
        assert list(act.perms) == list(want.perms)
        if len(act.points) <= 32 and act.perms:
            elem = _random_element(rng, list(act.perms))
            _assert_graph_equals_reference(act, act.points[int(rng.integers(len(act.points)))], elem)


@pytest.mark.parametrize("level", [8, 11])
def test_grigorchuk_orbital_graph_equals_the_name_based_reference(level):
    act, elem = _grigorchuk(level)
    want = reference_from_mealy(GRIGORCHUK_TRANSITIONS, ["0", "1"], level)
    assert act.points == want.points and act.perms == want.perms
    _assert_graph_equals_reference(act, "0" * level, elem, roots=["0" * level, "1" * level])


def test_ball_adjacency_and_codes_equal_the_reference_on_cut_balls():
    # a ball drops the labeled arcs that leave it and keeps weight-0 completions, which carry no
    # label, so its labels are a sparse dict over the arc positions
    rng = np.random.default_rng(6161)
    balls = cut = sparse = 0
    for _ in range(60):
        act = random_finite_action(rng, max_points=10)
        elem = _random_element(rng, act.generator_names())
        root = act.points[int(rng.integers(len(act.points)))]
        g, want = orbital_graph(act, root, elem), reference_orbital_graph(act, root, elem)
        adj = reference_adjacency(want)
        for center in g.graph.vertices[:3]:
            dist = reference_distances(adj, center)
            for radius in (0, 1, 2):
                got, ref = ball(g, center, radius), reference_ball(want, dist, radius)
                ref_adj = reference_adjacency(ref)
                names = got.graph.vertices
                assert [[names[t] if t >= 0 else None for t in row] for row in got._adjacency] == \
                    [ref_adj[v] for v in names]
                for v in names:
                    for r in range(radius + 2):
                        assert _ball_code(got, v, r) == reference_ball_code(ref_adj, v, r)
                balls += 1
                cut += any(ns.count(None) < ref_adj[v].count(None) for v, ns in adj.items() if v in ref_adj)
                sparse += len(got.labels) < len(got.graph.weight)
    assert balls > 400 and cut > 200 and sparse > 200
