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

from dataclasses import dataclass

import numpy as np

from .core import _check_radius
from .errors import DimensionCapError
from .operator import MAX_DENSE_DIM, FinSuppVector, apply, matrix_norm_bound, shift_graph

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
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError(f"{what}: matrix has non-finite entries")
    return m


def is_hermitian(matrix, atol: float = HERMITIAN_ATOL) -> bool:
    """Entrywise conjugate-symmetry check."""
    m = np.asarray(matrix, dtype=complex)
    return bool(np.all(np.abs(m - m.conj().T) <= atol))


def spectrum(matrix, hermitian: bool | None = None) -> SpectralSet:
    """Eigenvalue multiset of a finite matrix, canonically ordered.

    Hermitian inputs (detected entrywise at 1e-12 unless overridden) go
    through the symmetric solver and come back exactly real.
    """
    m = _as_square_matrix(matrix, "spectrum")
    if hermitian is None:
        hermitian = is_hermitian(m)
    if hermitian:
        vals = np.linalg.eigvalsh(m).astype(complex)
    else:
        vals = np.linalg.eigvals(m)
    tol = _EIG_ACCURACY * max(1.0, matrix_norm_bound(m))
    return SpectralSet(tuple(complex(v) for v in vals), tol)


@dataclass(frozen=True)
class MembershipVerdict:
    """Result of the two-sided deficiency membership test.

    ``witness_side`` names the product order whose deficiency operator
    carries the eigenvalue-1 witness ("none" for non-members);
    ``witness_value`` is the smaller of the two distances below.
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
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    bound = matrix_norm_bound(m)
    if radius is None:
        radius = 2.0 * max(bound, 1e-12)
    _check_radius(radius)
    if radius < 2.0 * bound - 1e-12 * max(1.0, bound):
        raise ValueError(f"radius {radius} is below twice the norm bound {bound}")
    a = m.copy()
    a[np.diag_indices(len(a))] -= complex(lam)
    dist_left, dist_right = (_distance_to_one(_deficiency_matrix(a, radius, s)) for s in ("left", "right"))
    member = dist_left <= tol or dist_right <= tol
    if member:
        side = "left" if dist_left <= dist_right else "right"
    else:
        side = "none"
    return MembershipVerdict(member, side, min(dist_left, dist_right), float(radius), dist_left, dist_right)


def _points(values) -> np.ndarray:
    if isinstance(values, SpectralSet):
        return values.as_array()
    return np.asarray(tuple(complex(v) for v in values), dtype=complex)


def hausdorff_distance(first, second) -> float:
    """Symmetrized sup-min distance between two finite plane point sets.

    A pseudometric on spectra: zero for equal multisets regardless of
    multiplicity bookkeeping.
    """
    p = _points(first)
    q = _points(second)
    if p.size == 0 or q.size == 0:
        raise ValueError("hausdorff_distance needs nonempty sets")
    d = np.abs(p[:, None] - q[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass(frozen=True)
class SubsetResult:
    included: bool
    max_deviation: float
    worst_point: complex | None


def subset_check(first, second, tol: float = DEFAULT_SUBSET_TOL) -> SubsetResult:
    """Does every point of ``first`` lie within ``tol`` of ``second``?

    Reports the worst offender alongside the verdict.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    p = _points(first)
    if p.size == 0:
        return SubsetResult(True, 0.0, None)
    q = _points(second)
    if q.size == 0:
        return SubsetResult(False, float("inf"), complex(p[0]))
    dev = np.abs(p[:, None] - q[None, :]).min(axis=1)
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
    radius = 2.0  # twice the declared norm bound of the shift

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
