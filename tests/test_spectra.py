import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import circulant_spectrum, unit_disk

from wgraph import (
    DEFAULT_MEMBERSHIP_TOL,
    HERMITIAN_ATOL,
    DimensionCapError,
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
import wgraph.operator
import wgraph.spectra
from wgraph.spectra import _EIGVALSH_GROWTH, _as_square_matrix, _eigvalsh_error, _in_pair, _spectrum_and_verdicts

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


def test_spectrum_refuses_a_matrix_that_is_not_square_or_past_the_cap(monkeypatch):
    with pytest.raises(ValueError, match=r"^spectrum requires a square matrix, got shape \(2, 3\)$"):
        spectrum(np.zeros((2, 3)))
    monkeypatch.setattr(wgraph.spectra, "MAX_DENSE_DIM", 2)
    spectrum(NILPOTENT)
    with pytest.raises(DimensionCapError, match="^spectrum: dimension 3 exceeds the cap 2$"):
        spectrum(np.eye(3))


def test_spectrum_of_hermitian_matrix_is_real():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = a + a.conj().T
    assert is_hermitian(h)
    s = spectrum(h)
    assert np.max(np.abs(s.as_array().imag)) <= 1e-10


def test_hermitian_rule_scales_with_small_entries():
    rotation = np.array([[0.0, -1e-13], [1e-13, 0.0]], dtype=complex)
    assert not is_hermitian(rotation)
    assert np.allclose(spectrum(rotation).as_array(), [-1e-13j, 1e-13j], rtol=0.0, atol=1e-25)

    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    small = 1e-13 * (a + a.conj().T)
    assert is_hermitian(small)
    assert np.all(spectrum(small).as_array().imag == 0.0)
    assert is_hermitian(np.zeros((3, 3)))


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
    # no point lies near an empty set: the first point is the worst, at an infinite distance
    r = subset_check(SpectralSet((1 + 0j, 2 + 0j)), SpectralSet(()))
    assert (r.included, r.max_deviation, r.worst_point) == (False, float("inf"), 1 + 0j)


def _dense_hausdorff(p, q) -> float:
    d = np.abs(p[:, None] - q[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _dense_subset(p, q, tol):
    dev = np.abs(p[:, None] - q[None, :]).min(axis=1)
    k = int(dev.argmax())
    return bool(dev[k] <= tol), float(dev[k]), complex(p[k])


def _as_bits(x: float) -> int:
    return np.float64(x).view(np.int64).item()


def test_real_sets_take_the_sorted_search_bit_for_bit():
    rng = np.random.default_rng(4040)
    cases = [(np.array([0.0]), np.array([-0.0])), (np.array([-0.0, 0.0]), np.array([1.0])),
             (np.array([2.5]), np.array([2.5, 2.5])), (np.array([1.0]), np.array([0.0, 2.0]))]  # a tie
    for _ in range(300):
        values = np.round(rng.normal(size=int(rng.integers(1, 40))) * 4) / 4  # duplicates and ties
        values[rng.random(len(values)) < 0.1] *= -0.0
        cut = int(rng.integers(1, len(values) + 1))
        cases.append((values[:cut], rng.permutation(values)[cut - 1:] + rng.choice([0.0, 0.125])))
    for p, q in cases:
        p, q = p.astype(complex), q.astype(complex)
        for a, b in ((p, q), (q, p)):
            assert _as_bits(hausdorff_distance(a, b)) == _as_bits(_dense_hausdorff(a, b))
            r, (ok, dev, worst) = subset_check(a, b, tol=0.1), _dense_subset(a, b, 0.1)
            assert (r.included, _as_bits(r.max_deviation)) == (ok, _as_bits(dev))
            assert np.array([r.worst_point]).view(np.int64).tolist() == np.array([worst]).view(np.int64).tolist()


def test_real_sets_form_no_square_matrix():
    rng = np.random.default_rng(5)
    p, q = (SpectralSet(tuple(rng.normal(size=2048))) for _ in range(2))
    tracemalloc.start()
    try:
        hausdorff_distance(p, q)
        subset_check(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 2048 * 16 / 64  # the dense formula's matrix alone takes 64 MB


def test_sets_off_the_real_line_or_with_nan_keep_the_dense_formula():
    nan = float("nan")
    rng = np.random.default_rng(6060)
    cases = [([1.0, nan], [0.0, 2.0]), ([nan], [nan]), ([0.0, 1.0], [0.5, nan]),
             ([1 + 1e-300j, 2.0], [0.0, 3.0]), ([np.inf], [0.0, 1.0]), ([0.5j, -1.0], [0.25, 2.0])]
    cases += [(unit_disk(rng, int(rng.integers(1, 30))), unit_disk(rng, int(rng.integers(1, 30))))
              for _ in range(50)]
    for p, q in cases:
        p, q = np.array(p, dtype=complex), np.array(q, dtype=complex)
        for a, b in ((p, q), (q, p)):
            want, got = _dense_hausdorff(a, b), hausdorff_distance(a, b)
            assert _as_bits(got) == _as_bits(want) or (np.isnan(got) and np.isnan(want))
            r, (ok, dev, worst) = subset_check(a, b, tol=0.1), _dense_subset(a, b, 0.1)
            assert r.included == ok and (r.max_deviation == dev or (np.isnan(dev) and np.isnan(r.max_deviation)))
            assert repr(r.worst_point) == repr(worst)


def test_shift_report_demonstrates_one_sided_failure():
    rep = shift_counterexample_report(depth=100, trials=100, seed=0)
    assert rep.passed
    assert rep.isometry_exact and rep.corange_kills_origin and rep.range_orthogonal_to_origin
    assert rep.right_distance == pytest.approx(0.25)
    assert rep.left_distance == 0.0
    assert rep.one_sided_misses_membership
    assert shift_counterexample_report(depth=1, trials=1).passed


@pytest.mark.parametrize("trials", [0, -3])
def test_shift_report_refuses_fewer_than_one_trial(trials):
    # with no random vector tested the orthogonality check would read "pass" on nothing
    with pytest.raises(ValueError, match="^trials must be at least 1$"):
        shift_counterexample_report(depth=10, trials=trials)


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


# --- Hermitian verdicts read off the computed spectrum


def _random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2


def _with_defect_near_the_limit(rng, h):
    """``h`` plus a strict upper triangle and an imaginary diagonal that :func:`is_hermitian`
    accepts, each at about half its limit (the rounding of an entry near 4e3 adds up to 0.45
    of it); ``eigvalsh`` reads neither."""
    n = len(h)
    limit = HERMITIAN_ATOL * min(1.0, float(np.abs(h).max()))
    m = h + np.triu(0.5 * limit * np.exp(2j * np.pi * rng.random((n, n))), 1)
    m[np.diag_indices(n)] += 0.49j * limit
    assert is_hermitian(m) and not np.array_equal(m, m.conj().T)
    return m


def _counting_dense(monkeypatch):
    calls = []
    real = wgraph.spectra.membership_by_deficiency
    monkeypatch.setattr(wgraph.spectra, "membership_by_deficiency", lambda *a: calls.append(a) or real(*a))
    return calls


def test_eigvalsh_error_bounds_every_eigenvector_residual():
    # for a unit x, ||Mx - mu x|| bounds sigma_min(M - mu), and for a Hermitian M the
    # distance of mu to its spectrum
    rng = np.random.default_rng(4242)
    for n in (1, 2, 7, 30, 96, 256):
        for scale in (1e-3, 1.0, 1e3):
            h = _random_hermitian(rng, n, scale)
            for m in (h, _with_defect_near_the_limit(rng, h)):
                delta = _eigvalsh_error(n, matrix_norm_bound(m))
                w, v = np.linalg.eigh(m)
                assert np.linalg.norm(m @ v - v * w, axis=0).max() <= delta
                assert np.abs(np.linalg.eigvalsh(m) - w).max() <= delta


def test_the_hermitian_defect_term_covers_what_eigvalsh_cannot_see():
    # eigvalsh reads the lower triangle only; an upper-triangle defect of size e moves
    # sigma_min(M - mu) at the all-ones eigenvector by about (n - 1) e / 2, beyond the
    # backward error of the solver alone
    n = 30
    m = np.ones((n, n), dtype=complex) / n
    m += np.triu(np.full((n, n), 0.99 * HERMITIAN_ATOL / n), 1)
    assert is_hermitian(m)
    bound = matrix_norm_bound(m)
    top = spectrum(m).values[-1]
    sigma = np.linalg.svd(m - top * np.eye(n), compute_uv=False)[-1]
    assert _EIGVALSH_GROWTH * n * np.finfo(float).eps * max(1.0, bound) < sigma <= _eigvalsh_error(n, bound)


def test_hermitian_verdicts_agree_with_the_smallest_singular_value(monkeypatch):
    dense = _counting_dense(monkeypatch)
    rng = np.random.default_rng(777)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        h = _random_hermitian(rng, n, 10.0 ** rng.uniform(-3, 3))
        for m in (h, _with_defect_near_the_limit(rng, h)):
            spec, bound = spectrum(m), matrix_norm_bound(m)
            delta, radius = _eigvalsh_error(n, bound), 2.0 * bound
            threshold = radius * np.sqrt(DEFAULT_MEMBERSHIP_TOL)
            offsets = threshold * np.array([0.0, 0.5, 0.99, 1.01, 2.0, 1e3])
            lams = spec.as_array().real[rng.integers(0, n, 6)] + offsets * np.exp(2j * np.pi * rng.random(6))
            got, verdicts = _spectrum_and_verdicts(m, lams)
            assert got == spec
            for lam, v in zip(lams, verdicts):
                sigma = np.linalg.svd(m - lam * np.eye(n), compute_uv=False)[-1]
                assert abs(sigma - threshold) > delta  # off the band
                assert v.member is bool(sigma <= threshold)
                assert v.witness_side == ("left" if v.member else "none")
                assert type(v.dist_left) is float and v.dist_left == v.dist_right == v.witness_value
                assert abs(np.sqrt(v.dist_left) * radius - sigma) <= 2 * delta
                assert v.R_used == radius
    assert dense == []


def test_a_lambda_in_the_band_gets_exactly_one_dense_verdict(monkeypatch):
    dense = _counting_dense(monkeypatch)
    m = _random_hermitian(np.random.default_rng(31), 6)
    spec = spectrum(m)
    threshold = 2.0 * matrix_norm_bound(m) * np.sqrt(DEFAULT_MEMBERSHIP_TOL)
    mu = spec.values[2]
    # mu + i * threshold lies exactly at the threshold, inside the band
    lams = [mu, mu + 10j * threshold, mu + 1j * threshold, mu + 0.1 * threshold]
    verdicts = _spectrum_and_verdicts(m, lams)[1]
    assert len(dense) == 1 and dense[0][1] == lams[2]
    assert verdicts[2] == membership_by_deficiency(m, lams[2])
    assert [v.member for v in verdicts] == [True, False, verdicts[2].member, True]


def test_non_hermitian_verdicts_are_the_dense_ones(monkeypatch):
    dense = _counting_dense(monkeypatch)
    lams = [0.0, 0.5, 0.25j]
    spec, verdicts = _spectrum_and_verdicts(NILPOTENT, lams)
    assert spec == spectrum(NILPOTENT) and len(dense) == 3
    assert verdicts == [membership_by_deficiency(NILPOTENT, lam) for lam in lams]


# --- the two-thread runner and the split lambda list


def _threads_of_dense(monkeypatch):
    """Record the point of each dense verdict, whether it ran on the main thread and how many
    threads were alive as it started; and the same count as each public spectrum started."""
    threads, alive = [], []
    real, real_spectrum = wgraph.spectra.membership_by_deficiency, wgraph.spectra.spectrum

    def recorded(*args):
        threads.append((args[1], threading.current_thread() is threading.main_thread()))
        alive.append(threading.active_count())
        return real(*args)

    def spectrum_recorded(m):
        alive.append(threading.active_count())
        return real_spectrum(m)

    monkeypatch.setattr(wgraph.spectra, "membership_by_deficiency", recorded)
    monkeypatch.setattr(wgraph.spectra, "spectrum", spectrum_recorded)
    return threads, alive


@pytest.mark.parametrize("count", [0, 1, 4, 5, None])
@pytest.mark.parametrize("n", [3, 5])
def test_split_non_hermitian_verdicts_come_back_in_order(monkeypatch, count, n):
    monkeypatch.setattr(wgraph.spectra, "_PAIR_MIN_ORDER", 4)
    rng = np.random.default_rng(100 * n + (count or 0))
    m = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    spec = spectrum(m)
    # the diagonal is the spectrum: half of the points are members, half are not; None tests
    # the spectrum itself
    lams = None if count is None else [spec.values[k % n] + (0.3 if k % 2 else 0.0) for k in range(count)]
    points = list(spec.values) if count is None else lams
    want = [membership_by_deficiency(m, lam) for lam in points]
    threads, alive = _threads_of_dense(monkeypatch)
    before = threading.active_count()
    assert _spectrum_and_verdicts(m, lams) == (spec, want)
    assert threading.active_count() == before
    assert len(alive) == len(points) + (count is not None) and max(alive, default=before) <= before + 1
    on_main = [on for _, on in sorted(threads, key=lambda t: points.index(t[0]))]
    if n >= 4:  # the first half, rounded up, ran on a second thread, the rest here
        half = (len(points) + 1) // 2
        assert on_main == [False] * half + [True] * (len(points) - half)
    else:
        assert on_main == [True] * len(points)


@pytest.mark.parametrize("order", [0, 10**6])
def test_pair_runs_both_tasks_and_raises_the_first_error_first(monkeypatch, order):
    monkeypatch.setattr(wgraph.spectra, "_PAIR_MIN_ORDER", 1000)
    ran = []

    def task(name, error=None):
        def run():
            ran.append((name, threading.current_thread() is threading.main_thread()))
            if error:
                raise ValueError(error)
            return name
        return run

    on_main = order < 1000
    before = threading.active_count()
    assert _in_pair(order, task("a"), task("b")) == ("a", "b")
    assert sorted(ran) == [("a", on_main), ("b", True)]
    for first, second in ((None, "b failed"), ("a failed", "b failed"), ("a failed", None)):
        del ran[:]
        with pytest.raises(ValueError, match=first or second):
            _in_pair(order, task("a", first), task("b", second))
        assert sorted(ran) == [("a", on_main), ("b", True)]  # both ran to the end
    assert threading.active_count() == before


def _is_hermitian_reference(m):
    """The whole-matrix formula that :func:`is_hermitian` computes in blocks of rows."""
    scale = min(1.0, float(np.abs(m).max(initial=0.0)))
    return bool(np.all(np.abs(m - m.conj().T) <= HERMITIAN_ATOL * scale))


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_is_hermitian_in_blocks_matches_the_whole_matrix_formula(monkeypatch, block):
    monkeypatch.setattr(wgraph.operator, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(5)
    cases = [np.zeros((0, 0)), np.zeros((3, 3)), NILPOTENT]
    for n in (1, 2, 5, 16):
        for scale in (1e-14, 1e-3, 1.0, 1e6):
            h = _random_hermitian(rng, n, scale)
            cases += [h, _with_defect_near_the_limit(rng, h) if n > 1 else h]
            for factor in (0.5, 0.999, 1.0, 1.001, 2.0):  # one entry off by about the limit
                m = h.copy()
                limit = HERMITIAN_ATOL * min(1.0, float(np.abs(h).max()))
                m[n - 1, 0] += factor * limit
                cases.append(m)
    for bad in (np.nan, np.inf):
        m = _random_hermitian(rng, 4)
        m[3, 1] = bad
        cases.append(m)
    verdicts = [is_hermitian(m) for m in cases]
    assert verdicts == [_is_hermitian_reference(m) for m in cases]
    assert True in verdicts and False in verdicts


def test_whole_matrix_scans_hold_no_quarter_of_the_matrix():
    m = np.random.default_rng(512).standard_normal((512, 1024)).view(complex)
    for scan in (matrix_norm_bound, lambda m: _as_square_matrix(m, "spectrum")):
        tracemalloc.start()
        try:
            scan(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes / 4, f"peak {peak} bytes"


@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 1)])
@pytest.mark.parametrize("where", [(767, 0), (765, 767)])  # the last of the blocks of 85 rows
def test_a_non_finite_entry_in_the_last_row_block_is_refused(bad, where):
    m = np.ones((768, 768), dtype=complex)
    m[where] = bad
    for what, call in (("spectrum", spectrum), ("membership_by_deficiency", lambda m: membership_by_deficiency(m, 0))):
        with pytest.raises(ValueError, match=f"^{what}: matrix has non-finite entries$"):
            call(m)


def test_the_hermitian_verdict_is_taken_once_and_is_no_field_of_the_set(monkeypatch):
    assert [f.name for f in dataclasses.fields(SpectralSet)] == ["values", "tol"]
    calls, depth = [], []
    real, real_spectrum = wgraph.spectra.is_hermitian, wgraph.spectra.spectrum

    def spectrum_nested(m):
        depth.append(m)
        try:
            return real_spectrum(m)
        finally:
            depth.pop()

    monkeypatch.setattr(wgraph.spectra, "is_hermitian", lambda m: calls.append(bool(depth)) or real(m))
    monkeypatch.setattr(wgraph.spectra, "spectrum", spectrum_nested)
    for m in (_random_hermitian(np.random.default_rng(8), 6), NILPOTENT):
        for lams in (None, [0.0, 0.5]):
            del calls[:]
            spec, _ = _spectrum_and_verdicts(m, lams)
            # once outside the public spectrum, which the non-Hermitian dense tests run beside
            assert calls.count(False) == 1
            assert calls.count(True) == (0 if lams is None or m is not NILPOTENT else 1)
            assert spec == real_spectrum(m) and repr(spec) == repr(SpectralSet(spec.values, spec.tol))
