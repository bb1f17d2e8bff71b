"""Finite spectra, two-sided membership testing, and spectral-set comparison.

The membership test rests on an identity between a point being in the
spectrum of a bounded operator A and the number 1 being in the spectrum of
at least one of the two Hermitian "deficiency" operators
``I - (A - lam)(A - lam)*/R^2`` and ``I - (A - lam)*(A - lam)/R^2``.
For normal operators either one suffices; in general both product orders
are needed, and :func:`shift_counterexample_report` exhibits an operator
where the right product alone gives the wrong answer.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .core import WeightedGraph, _check_int, _check_lambda, _check_radius, _cmul
from .errors import DimensionCapError
from .operator import MAX_DENSE_DIM, FinSuppVector, _matvec, _row_blocks, matrix_norm_bound

__all__ = [
    "HERMITIAN_ATOL",
    "DEFAULT_MEMBERSHIP_TOL",
    "DEFAULT_SUBSET_TOL",
    "SpectralSet",
    "MembershipVerdict",
    "SubsetResult",
    "ShiftReport",
    "spectrum",
    "is_hermitian",
    "membership_by_deficiency",
    "hausdorff_distance",
    "subset_check",
    "shift_counterexample_report",
]

HERMITIAN_ATOL = 1e-12
DEFAULT_MEMBERSHIP_TOL = 1e-9
DEFAULT_SUBSET_TOL = 1e-8
_EIG_ACCURACY = 1e-8
# eigvalsh's backward error is taken as p(n) eps ||M|| with p(n) = _EIGVALSH_GROWTH * n
_EIGVALSH_GROWTH = 4
_EPS = float(np.finfo(float).eps)
# matrix order from which _in_pair starts a second thread.  Below it numpy 2.4 (OpenBLAS 0.3.31)
# kept the GIL through eigvalsh, and through eigvals below about 300: at order 384 a --check-lambda
# took as long paired as in turn, and the non-normal orbital at orders 128 and 256 took 0.78 s paired
# against 0.74 s in turn and 6.35 s against 6.32 s (one BLAS thread, medians of 6 and 3 runs).
_PAIR_MIN_ORDER = 512


@dataclass(frozen=True)
class SpectralSet:
    """Finite eigenvalue multiset in canonical order.

    Values are sorted by (real, imag) with multiplicities preserved;
    ``tol`` is the accuracy scale the producer attaches to the values.
    """

    values: tuple[complex, ...]
    tol: float = 0.0

    def __post_init__(self):
        vals = tuple(sorted((complex(v) for v in self.values), key=lambda z: (z.real, z.imag)))
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=complex)


def _as_square_matrix(matrix, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} requires a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_DENSE_DIM:
        raise DimensionCapError(f"{what}: dimension {m.shape[0]} exceeds the cap {MAX_DENSE_DIM}")
    if not all(np.isfinite(m[block]).all() for block in _row_blocks(m)):
        raise ValueError(f"{what}: matrix has non-finite entries")
    return m


def is_hermitian(matrix) -> bool:
    """Entrywise conjugate-symmetry check at ``HERMITIAN_ATOL * min(1, max|m_ij|)``.

    The scale keeps a small non-normal matrix from being solved as Hermitian.  Blocks of rows,
    about ``_BLOCK_ENTRIES`` entries each, are compared with the matching columns, so the
    temporaries stay small; the first block off by more than ``HERMITIAN_ATOL`` settles a "no".
    """
    m = np.asarray(matrix, dtype=complex)
    gap = peak = 0.0
    for block in _row_blocks(m):
        rows = m[block]
        block_gap = float(np.abs(rows - m[:, block].conj().T).max(initial=0.0))
        if not block_gap <= HERMITIAN_ATOL:  # above every threshold the scale allows, or NaN
            return False
        gap, peak = max(gap, block_gap), max(peak, float(np.abs(rows).max(initial=0.0)))
    return gap <= HERMITIAN_ATOL * min(1.0, peak)


def spectrum(matrix) -> SpectralSet:
    """Eigenvalue multiset of a finite matrix, canonically ordered.

    Hermitian inputs (see :func:`is_hermitian`) go through the symmetric
    solver and come back exactly real.
    """
    m = _as_square_matrix(matrix, "spectrum")
    return _solve(m, is_hermitian(m), matrix_norm_bound(m))


def _solve(m: np.ndarray, hermitian: bool, bound: float) -> SpectralSet:
    """:func:`spectrum` of a matrix that ``_as_square_matrix`` accepted, whose
    :func:`is_hermitian` verdict is ``hermitian`` and whose Schur bound is ``bound``."""
    vals = np.linalg.eigvalsh(m).astype(complex) if hermitian else np.linalg.eigvals(m)
    return SpectralSet(tuple(complex(v) for v in vals), _EIG_ACCURACY * max(1.0, bound))


def _in_pair(order: int, first, second) -> tuple:
    """``(first(), second())``.  From matrix order ``_PAIR_MIN_ORDER`` on, ``first`` runs on a
    second thread while ``second`` runs on this one, as numpy releases the GIL in its products
    and solvers there; below it the two run in turn here.  Both run to the end either way, and
    an exception of ``first`` is raised before one of ``second``."""
    outcome = {}

    def run_first():
        try:
            outcome["value"] = first()
        except BaseException as e:  # raised again on the calling thread
            outcome["error"] = e

    thread = None
    if order < _PAIR_MIN_ORDER:
        run_first()
    else:
        thread = threading.Thread(target=run_first)
        thread.start()
    try:
        value = second()
    finally:
        if thread is not None:
            thread.join()
        if "error" in outcome:
            raise outcome["error"]
    return outcome["value"], value


@dataclass(frozen=True)
class MembershipVerdict:
    """Result of the two-sided deficiency membership test.

    ``witness_side`` names the product order whose deficiency operator
    carries the eigenvalue-1 witness ("none" for non-members);
    ``witness_value`` is the smaller of the two distances below.  Where a
    verdict on a Hermitian matrix is read off its computed spectrum (see
    ``_spectrum_and_verdicts``), both distances are ``(d/R)^2`` with ``d``
    the distance of lambda to that spectrum, and a member's side is "left".
    """

    member: bool
    witness_side: str  # "left" | "right" | "none"
    witness_value: float
    R_used: float
    dist_left: float
    dist_right: float


def _deficiency_matrix(shifted: np.ndarray, radius: float, side: str) -> np.ndarray:
    """``I - AA*/R^2`` (left) or ``I - A*A/R^2`` (right) of the shifted ``A``, built in its
    product.  Subtracting from zero, unlike negating, gives each zero the sign that
    ``np.eye(n) - X`` gives it, so the result is that formula bit for bit."""
    prod = shifted @ shifted.conj().T if side == "left" else shifted.conj().T @ shifted
    prod /= radius * radius
    np.subtract(0.0, prod, out=prod)
    prod[np.diag_indices(len(prod))] += 1
    return prod


def _distance_to_one(h: np.ndarray) -> float:
    """Distance of 1 to the spectrum of the Hermitian matrix ``h``."""
    return float(np.min(np.abs(np.linalg.eigvalsh(h) - 1.0), initial=np.inf))


def _eigvalsh_error(n: int, bound: float) -> float:
    """Distance within which ``eigvalsh`` puts the spectrum of an ``n x n`` matrix that
    :func:`is_hermitian` accepts, of Schur bound ``bound``: the backward error
    ``p(n) eps max(1, bound)`` of the symmetric solver (LAPACK Users' Guide, 3rd ed.,
    section 4.7), with ``p(n) = _EIGVALSH_GROWTH * n``, plus ``n * HERMITIAN_ATOL *
    min(1, bound)``, which bounds the distance of the matrix to the Hermitian lower
    triangle that ``eigvalsh`` factors (Weyl's inequality)."""
    return _EIGVALSH_GROWTH * n * _EPS * max(1.0, bound) + n * HERMITIAN_ATOL * min(1.0, bound)


def _spectrum_and_verdicts(m: np.ndarray, lams=None, radius: float | None = None,
                           tol: float = DEFAULT_MEMBERSHIP_TOL) -> tuple[SpectralSet, list[MembershipVerdict]]:
    """:func:`spectrum` of a matrix that ``_as_square_matrix`` accepted, and the
    :func:`membership_by_deficiency` verdict of each of ``lams`` against it, in order; with
    ``lams`` None, of each of its own eigenvalues.  A bad ``tol``, radius or point is refused
    before either is computed, and ``m`` is tested for Hermitian symmetry and bounded once,
    outside the public :func:`spectrum` and :func:`membership_by_deficiency`, which check
    and bound their own argument.

    For a Hermitian ``M``, ``sigma_min(M - lam)`` is the distance of ``lam`` to the spectrum,
    so both deficiency distances are ``(d/R)^2``, with ``d`` the distance of ``lam`` to the
    computed spectrum, and the side is "left" for a member.  ``d`` is off by at most
    :func:`_eigvalsh_error`; a ``lam`` whose verdict that error could flip gets the dense test.
    Every ``lam`` of a non-Hermitian matrix gets it too, in one ``_in_pair`` call: the worker
    tests the first half of the points, rounded up, and the caller the rest, after the public
    :func:`spectrum` where the points are given, as the dense test reads no spectrum.
    """
    bound, r, points = _membership_args(m, () if lams is None else lams, radius, tol)
    hermitian = is_hermitian(m)
    spec = _solve(m, hermitian, bound) if lams is None or hermitian else None
    if lams is None:
        points = list(spec.values)
    if not hermitian:
        def run(part):
            return [membership_by_deficiency(m, lam, r, tol) for lam in part]

        half = (len(points) + 1) // 2
        first, (spec, rest) = _in_pair(len(m), lambda: run(points[:half]),
                                       lambda: (spectrum(m) if spec is None else spec, run(points[half:])))
        return spec, first + rest
    delta = _eigvalsh_error(len(m), bound)
    # the spectrum is real and sorted, so the nearest eigenvalue to lam is a neighbour of Re(lam)
    z = np.asarray(points, dtype=complex)
    verdicts = []
    for lam, d in zip(points, np.hypot(_gaps(spec.as_array().real, z.real), z.imag).tolist()):
        near, far, q = (d + delta) / r, max(d - delta, 0.0) / r, d / r
        member = bool(near * near <= tol)
        if member or far * far > tol:
            verdicts.append(MembershipVerdict(member, "left" if member else "none", q * q, r, q * q, q * q))
        else:
            verdicts.append(membership_by_deficiency(m, lam, r, tol))
    return spec, verdicts


def _membership_args(m: np.ndarray, lams, radius: float | None, tol: float):
    """The Schur bound of ``m``, the radius of its verdicts and ``lams`` as complex numbers,
    with a bad ``tol``, radius or point refused in that order; a point is bad where
    ``((|lam| + bound) / radius)^2``, which bounds its distances and products, is not finite."""
    _check_tol(tol)
    bound = matrix_norm_bound(m)
    r, points = _deficiency_radius(bound, radius), [_check_lambda(lam) for lam in lams]
    for lam in points:
        if not (abs(lam) + bound) * (abs(lam) + bound) / (r * r) < np.inf:
            raise ValueError(f"lambda {lam!r} is too far out: (|lambda| + the norm bound {bound!r})^2 / R^2 "
                             "is not finite")
    return bound, r, points


def _gaps(mu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance of each real ``x`` to the sorted real points ``mu``: the smaller gap to its
    two neighbours in ``mu``, found by one ``searchsorted``."""
    above = np.minimum(np.searchsorted(mu, x), len(mu) - 1)
    below = np.maximum(above - 1, 0)
    return np.minimum(np.abs(x - mu[below]), np.abs(x - mu[above]))


def _check_tol(tol: float):
    """Refuse a verdict tolerance that is not a positive finite real number."""
    if not (isinstance(tol, numbers.Real) and 0 < tol < np.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _deficiency_radius(bound: float, radius: float | None = None) -> float:
    """Radius of a deficiency verdict on an operator of norm at most ``bound``: by default
    ``2 * max(bound, 1e-12)``, refused below ``2 * bound`` (less a relative slack of 1e-12),
    where the membership identity no longer holds."""
    if radius is None:
        radius = 2.0 * max(bound, 1e-12)
        if not radius * radius < np.inf:
            raise ValueError(f"the default radius, twice the norm bound {bound!r}, has no finite square")
    _check_radius(radius)
    if radius < 2.0 * bound - 1e-12 * max(1.0, bound):
        raise ValueError(f"radius {radius} is below twice the norm bound {bound}")
    return float(radius)


def membership_by_deficiency(matrix, lam, radius: float | None = None, tol: float = DEFAULT_MEMBERSHIP_TOL) -> MembershipVerdict:
    """Two-sided spectral membership test, valid without normality.

    Forms both Hermitian deficiency operators
    ``I - (M - lam)(M - lam)*/radius^2`` (left) and
    ``I - (M - lam)*(M - lam)/radius^2`` (right) and declares ``lam`` a
    member when either has an eigenvalue within ``tol`` of 1.  The
    distance of 1 to either spectrum equals ``sigma_min(M - lam)^2 /
    radius^2``, so the verdict matches the ground truth
    ``sigma_min(M - lam) <= radius * sqrt(tol)``.  ``radius`` defaults to
    twice the Schur norm bound (at least 2e-12).  Testing a single
    product order is sound only for normal operators; see
    :func:`shift_counterexample_report`.
    """
    m = _as_square_matrix(matrix, "membership_by_deficiency")
    _, radius, (lam,) = _membership_args(m, [lam], radius, tol)
    a = m.copy()
    a[np.diag_indices(len(a))] -= lam
    dist_left = _distance_to_one(_deficiency_matrix(a, radius, "left"))
    right = _deficiency_matrix(a, radius, "right")
    del a  # eigvalsh's copy of the right-side matrix can take the shifted copy's memory
    dist_right = _distance_to_one(right)
    member = dist_left <= tol or dist_right <= tol
    if member:
        side = "left" if dist_left <= dist_right else "right"
    else:
        side = "none"
    return MembershipVerdict(member, side, min(dist_left, dist_right), radius, dist_left, dist_right)


def _witness_distance(graph: WeightedGraph, v: np.ndarray, lam: complex, radius: float, bound: float) -> float:
    """Certified upper bound ``((rho + e)/R)^2`` on ``sigma_min(H - lam)^2 / R^2`` for the
    operator ``H`` of ``graph``, from the trial vector ``v``.

    ``rho = ||(H - lam) v|| / ||v||`` takes ``H v`` from the arcs (``operator._matvec``): one complex
    product per arc, formed as Python forms it, summed per row and per part; less ``lam v``.  Each norm is
    taken of the parts scaled by a power of two, so that no square overflows or underflows.
    ``e = 2 gamma_K (S + |lam|)`` bounds the rounding of all of it, with ``S = bound``, the
    Schur bound of ``graph``, ``u = eps/2``, ``gamma_k = k u / (1 - k u)``, ``K = 2m + 4n + 8``,
    ``n`` the order and ``m`` the largest out-degree plus one, the terms of one row:

    - each computed row is off by at most ``sqrt(2) gamma_{m+1}`` times the same sum taken in
      moduli (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Lemma 3.5 and
      (3.4)), so the residual vector by ``sqrt(2) gamma_{m+1} (S + |lam|) ||v||``, as ``S``
      bounds the 2-norm of the moduli of ``H`` (Schur test);
    - each norm, a sum of ``2n`` squares and a root, has a relative error below
      ``gamma_{2n+1}``, so the quotient below ``gamma_{4n+3}``; as ``rho`` is below
      ``S + |lam|`` up to these factors, that is an absolute error below
      ``gamma_{4n+4} (S + |lam|)``;
    - the two together stay below ``gamma_K (S + |lam|)``, as ``sqrt(2) gamma_{m+1} <=
      gamma_{2m+2}`` and ``gamma_a + gamma_b <= gamma_{a+b}``.  The other half of ``e``
      covers the rounding of ``S``, that of the sums of parallel arcs in ``materialize`` (so
      the bound holds for the materialized matrix too) and the three operations that form
      ``((rho + e)/R)^2``.

    Any unit ``v`` gives ``sigma_min(H - lam) <= ||(H - lam) v||``, the vector form of the
    pseudospectrum (Trefethen & Embree, *Spectra and Pseudospectra*, ch. 2), and a square
    matrix has ``sigma_min(A) = sigma_min(A*)``, so the result bounds the distance of 1 to the
    deficiency spectrum at ``lam`` on either side.  A non-finite residual gives NaN or inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _matvec(graph, v) - _cmul(lam, v)
        parts = np.stack([residual, v]).view(float)
        exponent = np.frexp(np.abs(parts).max(axis=1))[1]
        scaled = np.ldexp(parts, -exponent[:, None])
        norms = np.ldexp(np.sqrt(np.einsum("ij,ij->i", scaled, scaled)), exponent)
    rho = float(norms[0]) / float(norms[1])
    k = 2 * (int(graph._out_degree.max()) + 1) + 4 * graph.order + 8
    u = _EPS / 2
    e = 2 * (k * u / (1 - k * u)) * (bound + abs(lam))
    q = (rho + e) / radius
    return q * q


def _points(values) -> np.ndarray:
    if isinstance(values, SpectralSet):
        return values.as_array()
    return np.asarray(tuple(complex(v) for v in values), dtype=complex)


def _nearest(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Least ``|p_i - q_j|`` for each point of ``p``.  Two real finite sets need no matrix:
    a difference with imaginary part 0 has the modulus of its real part, bit for bit."""
    if not (p.imag.any() or q.imag.any()) and np.isfinite(p.real).all() and np.isfinite(q.real).all():
        return _gaps(np.sort(q.real), p.real)
    return np.abs(p[:, None] - q[None, :]).min(axis=1)


def hausdorff_distance(first, second) -> float:
    """Symmetrized sup-min distance between two finite plane point sets.

    A pseudometric on spectra: zero for equal multisets regardless of
    multiplicity bookkeeping.
    """
    p = _points(first)
    q = _points(second)
    if p.size == 0 or q.size == 0:
        raise ValueError("hausdorff_distance needs nonempty sets")
    return float(max(_nearest(p, q).max(), _nearest(q, p).max()))


@dataclass(frozen=True)
class SubsetResult:
    included: bool
    max_deviation: float
    worst_point: complex | None


def subset_check(first, second, tol: float = DEFAULT_SUBSET_TOL) -> SubsetResult:
    """Does every point of ``first`` lie within ``tol`` of ``second``?

    Reports the worst offender alongside the verdict.
    """
    _check_tol(tol)
    p = _points(first)
    if p.size == 0:
        return SubsetResult(True, 0.0, None)
    q = _points(second)
    if q.size == 0:
        return SubsetResult(False, float("inf"), complex(p[0]))
    dev = _nearest(p, q)
    k = int(dev.argmax())
    return SubsetResult(bool(dev[k] <= tol), float(dev[k]), complex(p[k]))


@dataclass(frozen=True)
class ShiftReport:
    """Outcome of the one-sided-shift demonstration.

    The forward shift S is an isometry (S*S = I) that is not invertible:
    delta_0 is orthogonal to its range, so 0 belongs to its spectrum.  At
    lam = 0 the right-product deficiency operator is (1 - 1/R^2) I, whose
    spectrum misses 1, while the left product fixes delta_0 exactly.  A
    membership test that checks only one product order is therefore
    unsound off the normal case.
    """

    depth: int
    trials: int
    radius: float
    isometry_exact: bool            # S*S delta_k == delta_k for all k <= depth
    corange_kills_origin: bool      # S S* delta_0 == 0 exactly
    range_orthogonal_to_origin: bool  # <delta_0, S f> == 0 on random f
    right_distance: float           # distance of 1 to the right deficiency values
    left_distance: float            # distance of 1 via the delta_0 witness
    one_sided_misses_membership: bool

    @property
    def passed(self) -> bool:
        return (
            self.isometry_exact
            and self.corange_kills_origin
            and self.range_orthogonal_to_origin
            and self.one_sided_misses_membership
        )


def _shift(f: FinSuppVector) -> FinSuppVector:
    """The one-sided shift S on vectors indexed by the naturals: ``S delta_k = delta_{k+1}``."""
    return FinSuppVector({k + 1: v for k, v in f.items()})


def _shift_adjoint(f: FinSuppVector) -> FinSuppVector:
    """Its adjoint S*: ``S* delta_k = delta_{k-1}``, and ``S* delta_0 = 0``."""
    return FinSuppVector({k - 1: v for k, v in f.items() if k >= 1})


def shift_counterexample_report(depth: int = 100, trials: int = 100, seed: int = 0) -> ShiftReport:
    """Demonstrate, exactly, why the membership test must be two-sided.

    All identities are checked with exact sparse arithmetic on finitely
    supported vectors; nothing here is a finite matrix truncation (finite
    square truncations of the shift have isospectral products both ways, so
    no matrix can exhibit the failure).
    """
    depth, trials, seed = _check_int(depth, "depth"), _check_int(trials, "trials"), _check_int(seed, "seed")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    # every weight sum of the shift is 1, so 1 is its Schur bound
    radius = _deficiency_radius(1.0)

    isometry = all(
        _shift_adjoint(_shift(FinSuppVector.delta(k))) == FinSuppVector.delta(k)
        for k in range(depth + 1)
    )
    corange = _shift(_shift_adjoint(FinSuppVector.delta(0))).is_zero()

    rng = np.random.default_rng(seed)
    delta0 = FinSuppVector.delta(0)
    orthogonal = True
    for _ in range(trials):
        size = int(rng.integers(1, 9))
        keys = [int(k) for k in rng.integers(0, 4 * depth + 1, size=size)]
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        f = FinSuppVector(zip(keys, vals))
        if delta0.inner(_shift(f)) != 0:
            orthogonal = False

    # Right product on basis vectors: (I - S*S/R^2) delta_k = (1 - 1/R^2) delta_k
    # exactly once the isometry identity holds, so 1 stays 1/R^2 away.
    right_distance = 1.0 / (radius * radius) if isometry else float("nan")
    # Left product: (I - S S*/R^2) delta_0 = delta_0 - (S S* delta_0)/R^2.
    residual = _shift(_shift_adjoint(delta0))
    left_distance = residual.norm() / (radius * radius)
    misses = isometry and corange and right_distance > DEFAULT_MEMBERSHIP_TOL and left_distance <= DEFAULT_MEMBERSHIP_TOL
    return ShiftReport(
        depth=depth,
        trials=trials,
        radius=radius,
        isometry_exact=isometry,
        corange_kills_origin=corange,
        range_orthogonal_to_origin=orthogonal,
        right_distance=right_distance,
        left_distance=left_distance,
        one_sided_misses_membership=misses,
    )
