import numpy as np
import pytest

from helpers import circulant_spectrum

from wgraph import (
    SpectralSet,
    deficiency_graph,
    hausdorff_distance,
    is_hermitian,
    make_graph,
    materialize,
    matrix_norm_bound,
    membership_by_deficiency,
    shift_counterexample_report,
    spectrum,
    subset_check,
)

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def cycle_graph(n):
    verts = [f"c{i}" for i in range(n)]
    arcs, pairing = [], []
    for i in range(n):
        k = len(arcs)
        arcs.append((verts[i], verts[(i + 1) % n], 1.0))
        arcs.append((verts[(i + 1) % n], verts[i], 1.0))
        pairing.extend([k + 1, k])
    return make_graph(verts, arcs, pairing)


def test_spectrum_of_swap_matrix():
    s = spectrum(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(s.as_array(), [-1.0, 1.0], atol=1e-12)


def test_spectrum_of_nilpotent_matrix():
    s = spectrum(NILPOTENT)
    assert np.allclose(s.as_array(), [0.0, 0.0], atol=1e-12)


def test_spectrum_of_eight_cycle_matches_closed_form():
    m = materialize(cycle_graph(8))
    s = spectrum(m)
    assert np.max(np.abs(s.as_array() - circulant_spectrum(8))) <= 1e-10
    # independent oracle: the characteristic polynomial (via LU determinants)
    # vanishes at every closed-form eigenvalue
    for lam in circulant_spectrum(8):
        assert abs(np.linalg.det(m - lam * np.eye(8))) <= 1e-8


def test_spectrum_of_hermitian_matrix_is_real():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = a + a.conj().T
    assert is_hermitian(h)
    s = spectrum(h)
    assert np.max(np.abs(s.as_array().imag)) <= 1e-10


def test_spectral_set_orders_canonically():
    s = SpectralSet((1 + 1j, -1 + 0j, 1 - 1j, 0j))
    assert s.values == (-1 + 0j, 0j, 1 - 1j, 1 + 1j)
    assert len(s) == 4


def test_membership_nilpotent_at_zero_witnesses_left():
    v = membership_by_deficiency(NILPOTENT, 0.0, 2.0, tol=1e-9)
    assert v.member and v.witness_side == "left"
    # left product MM* = diag(1,0): I - MM*/4 = diag(3/4, 1) hits 1 exactly
    assert v.dist_left == pytest.approx(0.0, abs=1e-12)
    d = materialize(deficiency_graph(cycle_graph(1), 0, 2.0, side="left"))
    assert d.shape == (1, 1)


def test_membership_nilpotent_at_half_is_outside():
    # det(M - I/2) = 1/4 != 0, so 1/2 is not an eigenvalue
    assert abs(np.linalg.det(NILPOTENT - 0.5 * np.eye(2))) == pytest.approx(0.25)
    v = membership_by_deficiency(NILPOTENT, 0.5, 2.0, tol=1e-9)
    assert not v.member and v.witness_side == "none"


def test_membership_normal_case_witnesses_both_sides():
    m = np.diag([1.0 + 0j, 2.0])
    v = membership_by_deficiency(m, 2.0, 4.0, tol=1e-9)
    assert v.member
    assert v.dist_left <= 1e-9 and v.dist_right <= 1e-9


def test_membership_rejects_bad_parameters():
    with pytest.raises(ValueError):
        membership_by_deficiency(NILPOTENT, 0.0, 2.0, tol=0.0)
    with pytest.raises(ValueError):
        membership_by_deficiency(NILPOTENT, 0.0, 0.5)  # R below 2*norm bound


def _textbook_distances(m, lam, radius):
    n = m.shape[0]
    a = m - complex(lam) * np.eye(n)
    left = np.eye(n) - (a @ a.conj().T) / radius**2
    right = np.eye(n) - (a.conj().T @ a) / radius**2
    return tuple(float(np.min(np.abs(np.linalg.eigvalsh(h) - 1.0))) for h in (left, right))


def _sparse_complex(rng, n):
    """About 70% exact zeros; about 30% of their real parts and 30% of their imaginary parts are -0.0."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    zero = rng.random((n, n)) < 0.7
    m[zero] = 0.0
    m.real[zero & (rng.random((n, n)) < 0.3)] = -0.0
    m.imag[zero & (rng.random((n, n)) < 0.3)] = -0.0
    return m


def test_membership_distances_equal_the_textbook_formula_bit_for_bit():
    rng = np.random.default_rng(2012)
    for _ in range(60):
        m = _sparse_complex(rng, int(rng.integers(1, 9)))
        radius = 2.0 * max(matrix_norm_bound(m), 1e-12)
        for lam in (0.0, -0.5 + 0.25j, 0.3 - 0.7j):
            v = membership_by_deficiency(m, lam, radius)
            assert (v.dist_left, v.dist_right) == _textbook_distances(m, lam, radius)


def test_membership_radius_defaults_to_twice_the_schur_bound():
    rng = np.random.default_rng(13565)
    for m in (NILPOTENT, np.zeros((3, 3)), *(_sparse_complex(rng, 5) for _ in range(5))):
        for lam in (0.0, -0.5 + 0.25j):
            want = membership_by_deficiency(m, lam, radius=2.0 * max(matrix_norm_bound(m), 1e-12))
            assert membership_by_deficiency(m, lam) == want


def test_graph_route_matches_matrix_route_for_deficiency():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        verts = [f"v{i}" for i in range(n)]
        arcs, pairing = [], []
        for i in range(n):
            for j in range(i + 1, n):
                k = len(arcs)
                arcs.append((verts[i], verts[j], complex(rng.normal(), rng.normal())))
                arcs.append((verts[j], verts[i], complex(rng.normal(), rng.normal())))
                pairing.extend([k + 1, k])
        g = make_graph(verts, arcs, pairing)
        m = materialize(g)
        lam = complex(rng.normal(), rng.normal())
        radius = 2.0 * matrix_norm_bound(m) + 1.0
        for side in ("left", "right"):
            shifted = m - lam * np.eye(n)
            prod = shifted @ shifted.conj().T if side == "left" else shifted.conj().T @ shifted
            direct = np.eye(n) - prod / radius**2
            routed = materialize(deficiency_graph(g, lam, radius, side=side))
            assert np.max(np.abs(routed - direct)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))


def test_hausdorff_distance_basics():
    a = SpectralSet((0j, 1 + 0j))
    assert hausdorff_distance(a, a) == 0.0
    assert hausdorff_distance(SpectralSet((0j,)), SpectralSet((1 + 0j,))) == 1.0
    with pytest.raises(ValueError):
        hausdorff_distance(SpectralSet(()), a)


def test_hausdorff_distance_invariant_under_similarity():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 11))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        b = q @ a @ q.conj().T
        assert hausdorff_distance(spectrum(a), spectrum(b)) <= 1e-7


def test_hausdorff_is_a_pseudometric():
    rng = np.random.default_rng(37)
    for _ in range(20):
        sets = [
            SpectralSet(tuple(complex(x, y) for x, y in rng.normal(size=(4, 2))))
            for _ in range(3)
        ]
        s1, s2, s3 = sets
        assert hausdorff_distance(s1, s2) == hausdorff_distance(s2, s1)
        assert hausdorff_distance(s1, s3) <= (
            hausdorff_distance(s1, s2) + hausdorff_distance(s2, s3) + 1e-12
        )


def test_subset_check_examples():
    r = subset_check(SpectralSet((-2 + 0j, 2 + 0j)), SpectralSet((-2 + 0j, 0j, 0j, 2 + 0j)))
    assert r.included and r.max_deviation == 0.0
    r = subset_check(SpectralSet((0.5 + 0j,)), SpectralSet((0j, 1 + 0j)), tol=0.4)
    assert not r.included
    assert r.max_deviation == pytest.approx(0.5)
    assert r.worst_point == 0.5 + 0j
    assert subset_check(SpectralSet(()), SpectralSet((1 + 0j,))).included


def test_shift_report_demonstrates_one_sided_failure():
    rep = shift_counterexample_report(depth=100, trials=100, seed=0)
    assert rep.passed
    assert rep.isometry_exact and rep.corange_kills_origin and rep.range_orthogonal_to_origin
    assert rep.right_distance == pytest.approx(0.25)
    assert rep.left_distance == 0.0
    assert rep.one_sided_misses_membership
    text = "\n".join(rep.lines())
    assert "one-sided" in text.lower()
    assert shift_counterexample_report(depth=1, trials=1).passed


@pytest.mark.parametrize("radius", [np.inf, 1e200, np.nan, 1e-200, -4.0])
def test_membership_refuses_a_radius_whose_square_is_not_finite_and_positive(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        membership_by_deficiency(NILPOTENT, 0.5, radius)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_membership_and_subset_refuse_a_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        membership_by_deficiency(NILPOTENT, 0.5, 2.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        subset_check(SpectralSet((0j,)), SpectralSet((0j,)), tol=tol)
