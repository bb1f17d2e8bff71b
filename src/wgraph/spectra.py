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

import threading
from dataclasses import dataclass, field

import numpy as np

from .core import _check_lambda, _check_radius
from .errors import DimensionCapError
from .operator import MAX_DENSE_DIM, FinSuppVector, apply, matrix_norm_bound, norm_bound, shift_graph

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
# entries per block of rows that is_hermitian compares with its columns (1 MiB of complex)
_BLOCK_ENTRIES = 1 << 16
# matrix order from which _in_pair starts a second thread.  Below it numpy 2.4 (OpenBLAS
# 0.3.31) kept the GIL through eigvalsh, and through eigvals below about 300, so on two cores
# a pair of tasks ran no faster on two threads than in turn, and at order 384 a fifth slower.
_PAIR_MIN_ORDER = 512


@dataclass(frozen=True)
class SpectralSet:
    """Finite eigenvalue multiset in canonical order.

    Values are sorted by (real, imag) with multiplicities preserved;
    ``tol`` is the accuracy scale the producer attaches to the values.
    """

    values: tuple[complex, ...]
    tol: float = 0.0
    # whether :func:`spectrum` solved the matrix as Hermitian, so that ``_membership_verdicts``
    # need not test it again; None for a set built by hand
    _hermitian: bool | None = field(default=None, init=False, repr=False, compare=False)

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
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError(f"{what}: matrix has non-finite entries")
    return m


def is_hermitian(matrix) -> bool:
    """Entrywise conjugate-symmetry check at ``HERMITIAN_ATOL * min(1, max|m_ij|)``.

    The scale keeps a small non-normal matrix from being solved as Hermitian.  Blocks of rows,
    about ``_BLOCK_ENTRIES`` entries each, are compared with the matching columns, so the
    temporaries stay small; the first block off by more than ``HERMITIAN_ATOL`` settles a "no".
    """
    m = np.asarray(matrix, dtype=complex)
    step = max(1, _BLOCK_ENTRIES // max(1, len(m)))
    gap = peak = 0.0
    for i in range(0, len(m), step):
        rows = m[i:i + step]
        block_gap = float(np.abs(rows - m[:, i:i + step].conj().T).max(initial=0.0))
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
    tol = _EIG_ACCURACY * max(1.0, bound)
    spec = SpectralSet(tuple(complex(v) for v in vals), tol)
    object.__setattr__(spec, "_hermitian", hermitian)
    return spec


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
    ``_membership_verdicts``), both distances are ``(d/R)^2`` with ``d``
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
    return float(np.min(np.abs(np.linalg.eigvalsh(h) - 1.0)))


def _eigvalsh_error(n: int, bound: float) -> float:
    """Distance within which ``eigvalsh`` puts the spectrum of an ``n x n`` matrix that
    :func:`is_hermitian` accepts, of Schur bound ``bound``: the backward error
    ``p(n) eps max(1, bound)`` of the symmetric solver (LAPACK Users' Guide, 3rd ed.,
    section 4.7), with ``p(n) = _EIGVALSH_GROWTH * n``, plus ``n * HERMITIAN_ATOL *
    min(1, bound)``, which bounds the distance of the matrix to the Hermitian lower
    triangle that ``eigvalsh`` factors (Weyl's inequality)."""
    return _EIGVALSH_GROWTH * n * _EPS * max(1.0, bound) + n * HERMITIAN_ATOL * min(1.0, bound)


def _membership_verdicts(matrix, spec: SpectralSet, lams, radius: float | None = None,
                         tol: float = DEFAULT_MEMBERSHIP_TOL) -> list[MembershipVerdict]:
    """:func:`membership_by_deficiency` of each of ``lams`` against ``matrix``, whose
    :func:`spectrum` is ``spec``.

    For a Hermitian ``M``, ``sigma_min(M - lam)`` is the distance of ``lam`` to the spectrum,
    so both deficiency distances are ``(d/R)^2``, with ``d`` the distance of ``lam`` to the
    computed spectrum, and the side is "left" for a member.  ``d`` is off by at most
    :func:`_eigvalsh_error`.  A ``lam`` whose verdict that error could flip, and every
    ``lam`` of a non-Hermitian matrix, gets the dense test.  Whether ``matrix`` is Hermitian
    is read off ``spec`` where :func:`spectrum` recorded it.
    """
    m = _as_square_matrix(matrix, "membership_by_deficiency")
    bound, r, lams = _membership_args(m, lams, radius, tol)
    return _verdicts(m, spec, lams, bound, r, tol)


def _verdicts(m: np.ndarray, spec: SpectralSet, lams: list, bound: float, r: float,
              tol: float) -> list[MembershipVerdict]:
    """``_membership_verdicts`` of a matrix that ``_as_square_matrix`` accepted, with its
    Schur bound, the radius and the points that ``_membership_args`` returned."""
    if not (is_hermitian(m) if spec._hermitian is None else spec._hermitian):
        return _dense_verdicts(m, lams, r, tol)
    delta = _eigvalsh_error(len(m), bound)
    # the spectrum is real and sorted, so the nearest eigenvalue to lam is a neighbour of Re(lam)
    z = np.asarray(lams, dtype=complex)
    verdicts = []
    for lam, d in zip(lams, np.hypot(_gaps(spec.as_array().real, z.real), z.imag).tolist()):
        near, far, q = (d + delta) / r, max(d - delta, 0.0) / r, d / r
        member = bool(near * near <= tol)
        if member or far * far > tol:
            verdicts.append(MembershipVerdict(member, "left" if member else "none", q * q, r, q * q, q * q))
        else:
            verdicts.append(membership_by_deficiency(m, lam, r, tol))
    return verdicts


def _membership_args(m: np.ndarray, lams, radius: float | None, tol: float):
    """The Schur bound of ``m``, the radius of its verdicts and ``lams`` as complex numbers,
    with a bad ``tol``, radius or point refused in that order."""
    _check_tol(tol)
    bound = matrix_norm_bound(m)
    return bound, _deficiency_radius(bound, radius), [_check_lambda(lam) for lam in lams]


def _dense_verdicts(m: np.ndarray, lams: list, radius: float, tol: float) -> list[MembershipVerdict]:
    """:func:`membership_by_deficiency` of each of ``lams``, in order; the first half of the
    list runs beside the second (see ``_in_pair``)."""
    def run(part):
        return [membership_by_deficiency(m, lam, radius, tol) for lam in part]

    half = len(lams) // 2
    if not half:
        return run(lams)
    first, second = _in_pair(len(m), lambda: run(lams[:half]), lambda: run(lams[half:]))
    return first + second


def _spectrum_and_verdict(m: np.ndarray, lam, radius: float | None = None,
                          tol: float = DEFAULT_MEMBERSHIP_TOL) -> tuple[SpectralSet, MembershipVerdict]:
    """:func:`spectrum` of a matrix that ``_as_square_matrix`` accepted, and the
    ``_membership_verdicts`` of ``lam`` against it, with a bad ``tol``, radius or ``lam``
    refused before either is computed.

    The dense test of a non-Hermitian ``m`` reads no spectrum, so from ``_PAIR_MIN_ORDER`` on
    it runs beside ``eigvals``; ``m`` is tested for Hermitian symmetry once either way.  Its
    Schur bound is computed once and handed down, except inside the public :func:`spectrum`
    (below ``_PAIR_MIN_ORDER``) and :func:`membership_by_deficiency`, which check and bound
    their own argument.
    """
    bound, r, (lam,) = _membership_args(m, [lam], radius, tol)
    if len(m) < _PAIR_MIN_ORDER:  # the pair would run in turn; spectrum records its verdict
        spec = spectrum(m)
    elif is_hermitian(m):
        spec = _solve(m, True, bound)
    else:
        verdict, spec = _in_pair(len(m), lambda: membership_by_deficiency(m, lam, r, tol),
                                 lambda: _solve(m, False, bound))
        return spec, verdict
    (verdict,) = _verdicts(m, spec, [lam], bound, r, tol)
    return spec, verdict


def _gaps(mu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance of each real ``x`` to the sorted real points ``mu``: the smaller gap to its
    two neighbours in ``mu``, found by one ``searchsorted``."""
    above = np.minimum(np.searchsorted(mu, x), len(mu) - 1)
    below = np.maximum(above - 1, 0)
    return np.minimum(np.abs(x - mu[below]), np.abs(x - mu[above]))


def _check_tol(tol: float):
    """Refuse a verdict tolerance that is not a positive finite number."""
    if not 0 < tol < np.inf:
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
    dist_left, dist_right = (_distance_to_one(_deficiency_matrix(a, radius, s)) for s in ("left", "right"))
    member = dist_left <= tol or dist_right <= tol
    if member:
        side = "left" if dist_left <= dist_right else "right"
    else:
        side = "none"
    return MembershipVerdict(member, side, min(dist_left, dist_right), radius, dist_left, dist_right)


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

    def lines(self) -> list[str]:
        out = [
            "shift-report 1",
            f"depth: {self.depth}",
            f"trials: {self.trials}",
            f"R: {self.radius!r}",
            f"CHECK isometry S*S=I on delta_k (k<=depth): {_pf(self.isometry_exact)}",
            f"CHECK S S* delta_0 = 0: {_pf(self.corange_kills_origin)}",
            f"CHECK <delta_0, S f> = 0 on random f: {_pf(self.range_orthogonal_to_origin)}",
            f"right-product distance of 1 at lambda=0: {self.right_distance!r}",
            f"left-product distance of 1 at lambda=0: {self.left_distance!r}",
        ]
        if self.one_sided_misses_membership:
            out.append(
                "VERDICT: the right product I - S*S/R^2 reports lambda=0 invertible, "
                "yet delta_0 is orthogonal to the range of S, so 0 is in the spectrum; "
                "the left product witnesses it exactly."
            )
            out.append(
                "A one-sided deficiency test is unsound for non-normal operators; "
                "membership must take the union over both product orders."
            )
        else:
            out.append("VERDICT: demonstration failed; see the check lines above.")
        return out


def _pf(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def shift_counterexample_report(depth: int = 100, trials: int = 100, seed: int = 0) -> ShiftReport:
    """Demonstrate, exactly, why the membership test must be two-sided.

    All identities are checked with exact sparse arithmetic on finitely
    supported vectors; nothing here is a finite matrix truncation (finite
    square truncations of the shift have isospectral products both ways, so
    no matrix can exhibit the failure).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    fwd = shift_graph("forward")
    adj = shift_graph("adjoint")
    radius = _deficiency_radius(norm_bound(fwd))

    isometry = all(
        apply(adj, apply(fwd, FinSuppVector.delta(k))) == FinSuppVector.delta(k)
        for k in range(depth + 1)
    )
    corange = apply(fwd, apply(adj, FinSuppVector.delta(0))).is_zero()

    rng = np.random.default_rng(seed)
    delta0 = FinSuppVector.delta(0)
    orthogonal = True
    for _ in range(trials):
        size = int(rng.integers(1, 9))
        keys = [int(k) for k in rng.integers(0, 4 * depth + 1, size=size)]
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        f = FinSuppVector(zip(keys, vals))
        if delta0.inner(apply(fwd, f)) != 0:
            orthogonal = False

    # Right product on basis vectors: (I - S*S/R^2) delta_k = (1 - 1/R^2) delta_k
    # exactly once the isometry identity holds, so 1 stays 1/R^2 away.
    right_distance = 1.0 / (radius * radius) if isometry else float("nan")
    # Left product: (I - S S*/R^2) delta_0 = delta_0 - (S S* delta_0)/R^2.
    residual = apply(fwd, apply(adj, delta0))
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
