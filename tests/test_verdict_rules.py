"""One rule each for the verdict radius, the verdict tolerance, a finite lambda and the Schur bound.

Every deficiency verdict (membership, the verdicts read off a Hermitian
spectrum, the covering route, the orbital positive-element graph) must
refuse the same inputs with the same message, and the norm bounds must
neither overflow nor underflow, nor change a bit where the plain product
``sqrt(r * c)`` is finite and normal.
"""

import warnings

import numpy as np
import pytest

from helpers import odometer_action, random_graph, random_matrix, reference_norm_bound

from wgraph import (
    GroupAlgebraElement,
    SpectralSet,
    deficiency_graph,
    deficiency_route_check,
    make_graph,
    materialize,
    matrix_norm_bound,
    membership_by_deficiency,
    norm_bound,
    orbital_graph,
    positive_element_graph,
    subset_check,
    voltage_cover,
)
import wgraph.spectra
from wgraph.spectra import _spectrum_and_verdicts

# the 2-cycle x <-> y with unit weights, its 2-sheet cover, and an element of
# the same norm bound 1 on the odometer
BASE = make_graph(["x", "y"], [("x", "y", 1.0), ("y", "x", 1.0)], [1, 0])
COVERING = voltage_cover(BASE, 2, [(1, 0), (1, 0)])[1]
MATRIX = materialize(BASE)
ELEMENT = GroupAlgebraElement({("a",): 1.0})
ORBITAL = orbital_graph(odometer_action(3), "000", ELEMENT)
POINTS = SpectralSet((-1.0, 1.0))

TOL_RULE = {
    "membership": lambda tol: membership_by_deficiency(MATRIX, 1.0, tol=tol),
    "verdicts": lambda tol: _spectrum_and_verdicts(MATRIX, [1.0], None, tol),
    "subset_check": lambda tol: subset_check(POINTS, POINTS, tol),
    "route": lambda tol: deficiency_route_check(COVERING, tol=tol),
}
RADIUS_RULE = {
    "membership": lambda radius: membership_by_deficiency(MATRIX, 1.0, radius),
    "verdicts": lambda radius: _spectrum_and_verdicts(MATRIX, [1.0], radius),
    "route": lambda radius: deficiency_route_check(COVERING, radius=radius),
    "positive_element_graph": lambda radius: positive_element_graph(ORBITAL, ELEMENT, 0.0, radius),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("call", TOL_RULE.values(), ids=TOL_RULE)
def test_every_verdict_refuses_the_same_bad_tol(call, tol):
    with pytest.raises(ValueError) as e:
        call(tol)
    assert str(e.value) == f"tol must be positive and finite, got {tol!r}"


@pytest.mark.parametrize("radius", [1.5, 2.0 * (1 - 5e-10)])
@pytest.mark.parametrize("call", RADIUS_RULE.values(), ids=RADIUS_RULE)
def test_every_verdict_refuses_the_same_undersized_radius(call, radius):
    with pytest.raises(ValueError) as e:
        call(radius)
    assert str(e.value) == f"radius {radius} is below twice the norm bound 1.0"


@pytest.mark.parametrize("call", RADIUS_RULE.values(), ids=RADIUS_RULE)
def test_every_verdict_takes_twice_the_bound_less_the_same_slack(call):
    call(2.0 * (1 - 1e-13))


def test_a_default_radius_without_a_finite_square_names_the_norm_bound():
    with pytest.raises(ValueError, match=r"radius, twice the norm bound 2e\+200"):
        membership_by_deficiency(np.full((2, 2), 1e200), 0.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, complex(0.0, np.nan), complex(-np.inf, 1.0)])
def test_a_non_finite_lambda_is_refused(lam):
    for call in (
        lambda: membership_by_deficiency(MATRIX, lam),
        lambda: _spectrum_and_verdicts(MATRIX, [0.0, lam]),
        lambda: deficiency_route_check(COVERING, lambdas=[lam]),
        lambda: deficiency_graph(BASE, lam, 4.0),
    ):
        with pytest.raises(ValueError, match="lambda must be finite"):
            call()


@pytest.mark.parametrize("matrix, lam, near", [
    (MATRIX, 1e160, 1e150), (MATRIX, complex(-1e308, 1e308), -1e150j),
    (np.array([[0.0, 1e-20], [0.0, 0.0]], dtype=complex), 1e150, 1e140),  # a radius of 2e-12 divides the square
])
def test_a_lambda_whose_distances_overflow_is_refused_before_any_product(matrix, lam, near, monkeypatch):
    bound = matrix_norm_bound(matrix)
    message = f"lambda {complex(lam)!r} is too far out: (|lambda| + the norm bound {bound!r})^2 / R^2 is not finite"
    monkeypatch.setattr(wgraph.spectra, "_deficiency_matrix", None)  # any product would fail otherwise
    for call in (lambda: membership_by_deficiency(matrix, lam), lambda: _spectrum_and_verdicts(matrix, [0.0, lam])):
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == message
    monkeypatch.undo()
    verdict = membership_by_deficiency(matrix, near)  # nearer in, the distances are finite
    assert not verdict.member and np.isfinite([verdict.dist_left, verdict.dist_right]).all()


def test_schur_bounds_of_huge_entries_are_finite():
    full = make_graph(
        ["x", "y"],
        [("x", "x", 1e200), ("x", "y", 1e200), ("y", "x", 1e200), ("y", "y", 1e200)],
        [0, 2, 1, 3],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert matrix_norm_bound(np.full((2, 2), 1e200)) == 2e200
        assert norm_bound(full) == 2e200


def test_schur_bounds_of_tiny_entries_are_not_zero():
    # the product of the row and column sums underflows below the normal range here
    cycle = make_graph(["x", "y"], [("x", "y", 1e-170), ("y", "x", 1e-170)], [1, 0])
    assert matrix_norm_bound(np.full((2, 2), 1e-170)) == 2e-170
    assert norm_bound(cycle) == 1e-170
    assert matrix_norm_bound(np.full((2, 2), 5e-324)) == 1e-323


def test_schur_bounds_keep_the_bits_of_the_plain_product():
    rng = np.random.default_rng(20261018)
    for _ in range(100):
        m = random_matrix(rng) * 10.0 ** int(rng.integers(-100, 100))
        absm = np.abs(m)
        assert matrix_norm_bound(m) == float(np.sqrt(absm.sum(axis=1).max() * absm.sum(axis=0).max()))
        g = random_graph(rng)
        g = g.with_weights(g.weight * 10.0 ** int(rng.integers(-100, 100)))
        assert norm_bound(g) == reference_norm_bound(g)
