"""Covering maps between weighted graphs and spectral transport along them.

A covering is a pair of maps (vertices of the cover onto vertices of the
base, arcs onto arcs) that preserves endpoints, reversal pairing and
weights and restricts to a bijection on the out-arcs of every vertex.
Pulling functions back along the vertex map then intertwines the two graph
operators, which forces the base spectrum into the cover spectrum for
finite graphs.  The same inclusion can be reached through the deficiency
graphs, transporting the eigenvalue-1 witness instead of eigenvectors;
:func:`deficiency_route_check` runs that route end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .core import (WeightedGraph, _check_int, _check_ints, _check_lambda, _compose, _deficiency_chain, add_scalar,
                   adjoint, deficiency_graph, scale)
from .errors import CoveringError, DimensionCapError, GraphStructureError
from .operator import materialize, norm_bound
from .spectra import (DEFAULT_SUBSET_TOL, SpectralSet, SubsetResult, _check_tol, _deficiency_radius,
                      _distance_to_one, _nearest, _witness_distance, spectrum, subset_check)

__all__ = [
    "CoveringMap",
    "Violation",
    "InclusionReport",
    "RouteStep",
    "DeficiencyRouteReport",
    "verify_covering",
    "induced_covering",
    "induced_deficiency_covering",
    "voltage_cover",
    "pullback_matrix",
    "spectral_inclusion_check",
    "deficiency_route_check",
]


@dataclass(frozen=True)
class CoveringMap:
    """Covering of ``base`` by ``cover``.

    ``vertex_map`` sends cover vertices onto base vertices; ``arc_map[i]``
    is the base arc index that cover arc ``i`` projects to.
    """

    cover: WeightedGraph
    base: WeightedGraph
    vertex_map: dict = field(hash=False)
    arc_map: tuple[int, ...]

    @cached_property
    def spectra(self) -> tuple[SpectralSet, SpectralSet]:
        """Spectra of base and cover, computed once per covering.  The cover goes first: it is
        never smaller than the base, so a covering over the dense cap is refused with its order."""
        cover = spectrum(materialize(self.cover))
        return spectrum(materialize(self.base)), cover


@dataclass(frozen=True)
class Violation:
    """One failed covering invariant (kind, location, human detail)."""

    kind: str  # endpoint | pairing | weight | local_bijectivity | surjectivity
    where: str
    detail: str


def _vertex_images(covering: CoveringMap) -> np.ndarray:
    """Base vertex index of each cover vertex, in cover vertex order."""
    base_pos = covering.base._vertex_pos
    return np.array([base_pos[covering.vertex_map[v]] for v in covering.cover.vertices], dtype=np.int64)


def verify_covering(covering: CoveringMap) -> list[Violation]:
    """Check every covering invariant; an empty list means valid.

    All violations are reported, not just the first: per arc in index
    order its endpoint, pairing and weight violations, then per cover
    vertex a local bijectivity violation, then surjectivity.  Maps that
    reference unknown vertices or arc indices are malformed inputs and
    raise GraphStructureError instead of being reported as violations.
    """
    cov, base = covering.cover, covering.base
    vm, am = covering.vertex_map, covering.arc_map
    if set(vm.keys()) != set(cov.vertices):
        raise GraphStructureError("vertex map domain does not equal the cover vertex set")
    base_vs = set(base.vertices)
    for v, w in vm.items():
        if w not in base_vs:
            raise GraphStructureError(f"vertex map sends {v!r} to unknown vertex {w!r}")
    if len(am) != len(cov.arcs):
        raise GraphStructureError(f"arc map length {len(am)} does not match arc count {len(cov.arcs)}")
    ints = np.array(am)
    if ints.dtype.kind not in "iub":  # names the first entry that is not an integer
        _check_ints(am, "arc map entry", GraphStructureError)
    am = ints.astype(np.int64, copy=False)
    out_of_range = np.flatnonzero((am < 0) | (am >= len(base.arcs)))
    if out_of_range.size:
        i = int(out_of_range[0])
        raise GraphStructureError(f"arc map sends arc {i} to unknown arc index {am[i]}")

    phi = _vertex_images(covering)
    failed = np.stack([
        (phi[cov.source] != base.source[am]) | (phi[cov.target] != base.target[am]),
        am[cov.pair] != base.pair[am],
        cov.weight != base.weight[am],
    ], axis=1)
    violations: list[Violation] = []
    # nonzero walks the (arc, check) table row by row: by arc, then by check
    for i, kind in zip(*(ix.tolist() for ix in np.nonzero(failed))):
        if kind == 0:
            violations.append(
                Violation("endpoint", f"arc {i}", f"projects to arc {am[i]} with incompatible endpoints")
            )
        elif kind == 1:
            violations.append(
                Violation("pairing", f"arc {i}", "reversal does not commute with the arc map")
            )
        else:
            got, want = complex(cov.weight[i]), complex(base.weight[am[i]])
            violations.append(Violation("weight", f"arc {i}", f"weight {got} projects to {want}"))

    # local bijectivity at v: as many out-arcs as phi(v), each image leaving
    # phi(v), and no image twice (one sort by vertex, then image, finds repeats)
    bijective = cov._out_degree == base._out_degree[phi]
    bijective[cov.source[base.source[am] != phi[cov.source]]] = False
    order = np.lexsort((am, cov.source))
    vertex, image = cov.source[order], am[order]
    bijective[vertex[1:][(vertex[1:] == vertex[:-1]) & (image[1:] == image[:-1])]] = False
    for v in np.flatnonzero(~bijective).tolist():
        violations.append(
            Violation(
                "local_bijectivity",
                f"vertex {cov.vertices[v]}",
                "out-arcs do not map bijectively onto the base out-arcs",
            )
        )
    missing = sorted(set(base.vertices) - set(vm.values()))
    if missing:
        violations.append(Violation("surjectivity", f"vertices {missing}", "base vertices not covered"))
    return violations


def _checked(covering: CoveringMap, context: str) -> CoveringMap:
    violations = verify_covering(covering)
    if violations:
        detail = "; ".join(f"{v.kind} at {v.where}" for v in violations[:5])
        raise CoveringError(f"{context}: {len(violations)} violation(s): {detail}")
    return covering


def _induced(covering: CoveringMap, op: str, *, factor=None, other: CoveringMap | None = None) -> CoveringMap:
    """:func:`induced_covering` without the final verification."""
    vm = dict(covering.vertex_map)
    if op == "scale":
        return CoveringMap(scale(covering.cover, factor), scale(covering.base, factor), vm, covering.arc_map)
    if op == "add_scalar":
        loops = len(covering.base.arcs) + _vertex_images(covering)
        arc_map = tuple(covering.arc_map) + tuple(loops.tolist())
        return CoveringMap(add_scalar(covering.cover, factor), add_scalar(covering.base, factor), vm, arc_map)
    if op == "adjoint":
        return CoveringMap(adjoint(covering.cover), adjoint(covering.base), vm, covering.arc_map)
    if op == "compose":
        if other is None:
            raise ValueError("compose needs a second covering")
        if covering.vertex_map != other.vertex_map:
            raise CoveringError("compose needs coverings with identical vertex maps")
        cov2, cover_left, cover_right = _compose(covering.cover, other.cover)
        base2, base_left, base_right = _compose(covering.base, other.base)
        if (cover_left < 0).any():
            raise CoveringError(
                "composed cover needed zero-completion arcs; compose factors must share an arc skeleton"
            )
        # composed arcs are numbered by (left factor, right factor), so the
        # base keys of the factor pairs come out sorted
        width = max(len(other.base.arcs), 1)
        paired = base_left >= 0
        base_keys = base_left[paired] * width + base_right[paired]
        want_left = np.array(covering.arc_map, dtype=np.int64)[cover_left]
        want_right = np.array(other.arc_map, dtype=np.int64)[cover_right]
        want = want_left * width + want_right
        arc_map = np.searchsorted(base_keys, want)
        found = arc_map < len(base_keys)
        found[found] = base_keys[arc_map[found]] == want[found]
        if not found.all():
            i = int(np.argmin(found))
            key = (int(want_left[i]), int(want_right[i]))
            raise CoveringError(f"no base arc for the composed factor pair {key}")
        return CoveringMap(cov2, base2, vm, tuple(arc_map.tolist()))
    raise ValueError(f"unknown operation {op!r}")


def induced_covering(covering: CoveringMap, op: str, *, factor=None, other: CoveringMap | None = None) -> CoveringMap:
    """Transport a covering through a graph operation.

    ``op`` is one of "scale" / "add_scalar" (both need ``factor``),
    "adjoint", or "compose" (needs ``other``, a second covering with the
    same vertex map on the same vertex sets).  Scaling and conjugation
    reuse the arc map; adding a scalar extends it loop-to-loop; composition
    sends the composed arc (a, b) to (image of a, image of b).  The result
    is re-verified before being returned.
    """
    return _checked(_induced(covering, op, factor=factor, other=other), f"induced covering for {op}")


_COVERING_OPS = SimpleNamespace(
    scale=lambda c, factor: _induced(c, "scale", factor=factor),
    add_scalar=lambda c, factor: _induced(c, "add_scalar", factor=factor),
    adjoint=lambda c: _induced(c, "adjoint"),
    compose=lambda c, other: _induced(c, "compose", other=other),
)
"""Induced coverings, unverified, as the ``ops`` of :func:`wgraph.core._deficiency_chain`."""


def induced_deficiency_covering(covering: CoveringMap, lam, radius: float, side: str = "right") -> CoveringMap:
    """Covering between the deficiency graphs of cover and base at ``lam``.

    Built by the same chain of operations as
    :func:`wgraph.core.deficiency_graph`, each transported as an induced
    covering, so the two graphs equal the direct constructions arc for
    arc.  The result is verified once, at the end of the chain.
    """
    chain = _deficiency_chain(covering, lam, radius, side, _COVERING_OPS)
    return _checked(chain, "induced deficiency covering")


def _check_degree(degree) -> int:
    """``degree`` as an int; refused unless it is an integer of at least 1."""
    d = _check_int(degree, "degree")
    if d < 1:
        raise ValueError("degree must be at least 1")
    return d


def _check_voltages(d: int, volts):
    """Refuse a voltage that is not a permutation of the sheets ``0..d-1``; one of another
    length is refused before ``0..d-1`` is listed."""
    for k, p in enumerate(volts):
        if len(p) != d or sorted(p) != list(range(d)):
            raise ValueError(f"voltage of arc {k} is not a permutation of 0..{d - 1}")


def voltage_cover(base: WeightedGraph, degree: int, voltages) -> tuple[WeightedGraph, CoveringMap]:
    """Lift a base graph to a degree-d cover via arc voltages.

    ``voltages[k]`` is a permutation of the sheets ``0..d-1`` (tuple of
    images) attached to arc ``k``; the voltage of a reversal must be the
    inverse permutation, so a self-paired arc needs an involutive voltage.
    Arc ``k = (v -> w)`` lifts to the d arcs ``(v, i) -> (w, volt[k][i])``
    with the same weight; vertex ``(v, i)`` is named ``"v@<i+1>"``.
    Both ``d * order`` and ``d * arcs`` are checked against
    :data:`wgraph.operator.MAX_ARCS` before anything is built.
    Returns the cover and the (already verified) covering map.
    """
    from .operator import MAX_ARCS

    d = _check_degree(degree)
    order, arcs = d * base.order, d * len(base.weight)
    if max(order, arcs) > MAX_ARCS:
        raise DimensionCapError(f"cover would have {order} vertices and {arcs} arcs; the arc cap is {MAX_ARCS}")
    volts = [tuple(_check_ints(p, f"voltage of arc {k}: entry")) for k, p in enumerate(voltages)]
    if len(volts) != len(base.arcs):
        raise ValueError(f"need one voltage per arc: got {len(volts)} for {len(base.arcs)} arcs")
    _check_voltages(d, volts)
    volt = np.array(volts, dtype=np.int64).reshape(len(volts), d)
    inverse = np.empty_like(volt)
    np.put_along_axis(inverse, volt, np.arange(d)[None, :], axis=1)
    wrong = np.flatnonzero((volt != inverse[base.pair]).any(axis=1))
    if wrong.size:
        raise ValueError(f"voltage of arc {int(wrong[0])} is not inverse to the voltage of its reversal")

    # lifted vertex (v, i) is number v * d + i; its position in the cover is rank[v * d + i]
    # distinct: the last '@' of a name splits it back into its base vertex and sheet
    names = [f"{v}@{i + 1}" for v in base.vertices for i in range(d)]
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    sheets = np.arange(d)[None, :]
    cover = WeightedGraph(
        tuple(names[i] for i in order),
        rank[base.source[:, None] * d + sheets].ravel(),
        rank[base.target[:, None] * d + volt].ravel(),
        np.repeat(base.weight, d),
        (base.pair[:, None] * d + volt).ravel(),
    )
    vertex_map = dict(zip(names, [v for v in base.vertices for _ in range(d)]))
    arc_map = tuple(np.repeat(np.arange(len(volts)), d).tolist())
    covering = CoveringMap(cover, base, vertex_map, arc_map)
    return cover, _checked(covering, "voltage cover")


def pullback_matrix(covering: CoveringMap) -> np.ndarray:
    """Matrix of f -> f o vertex_map from base functions to cover functions."""
    n = covering.cover.order
    p = np.zeros((n, covering.base.order))
    p[np.arange(n), _vertex_images(covering)] = 1.0
    return p


@dataclass(frozen=True)
class InclusionReport:
    base_spectrum: SpectralSet
    cover_spectrum: SpectralSet
    subset: SubsetResult
    intertwining_residual: float

    @property
    def included(self) -> bool:
        return self.subset.included


def spectral_inclusion_check(covering: CoveringMap, tol: float = DEFAULT_SUBSET_TOL) -> InclusionReport:
    """Verify the base spectrum sits inside the cover spectrum.

    Checks subset_check(spec(base), spec(cover), tol) and additionally the
    intertwining H_cover P = P H_base for the pullback P, which forces the
    inclusion for finite covers (a base eigenvector pulls back to a nonzero
    cover eigenvector since the vertex map is onto).
    """
    _checked(covering, "spectral inclusion")
    h1 = materialize(covering.cover)
    h2 = materialize(covering.base)
    p = pullback_matrix(covering)
    residual = float(np.abs(h1 @ p - p @ h2).max())
    base_spec, cover_spec = covering.spectra
    return InclusionReport(base_spec, cover_spec, subset_check(base_spec, cover_spec, tol), residual)


@dataclass(frozen=True)
class RouteStep:
    lam: complex
    # upper bound on the distance of 1 to the base deficiency spectrum: the certified
    # ((rho + e)/R)^2 of the base witness, or the dense distance where that is not <= tol
    base_witness: float
    # the same for the cover, from the lifted witness v o phi
    cover_witness: float
    spectrum_distance: float  # distance of lam to the cover spectrum
    ok: bool


@dataclass(frozen=True)
class DeficiencyRouteReport:
    radius: float
    tol: float
    side: str
    steps: tuple[RouteStep, ...]

    @property
    def all_ok(self) -> bool:
        return all(s.ok for s in self.steps)


def _deficiency_distance(graph: WeightedGraph, lam: complex, radius: float, side: str) -> float:
    """Distance of 1 to the spectrum of the materialized deficiency graph of ``graph`` at ``lam``;
    refused where a weight of that graph overflowed, as a non-finite matrix has no dense test."""
    m = materialize(deficiency_graph(graph, lam, radius, side))
    if not np.isfinite(m.view(float)).all():
        raise ValueError(f"deficiency graph at {lam}: a weight overflowed, so it has no dense test")
    return _distance_to_one(m)


def deficiency_route_check(
    covering: CoveringMap,
    lambdas=None,
    radius: float | None = None,
    tol: float = DEFAULT_SUBSET_TOL,
    side: str = "right",
) -> DeficiencyRouteReport:
    """Spectral inclusion along the deficiency graphs, witness by witness.

    For each lam (default: every base eigenvalue) this checks that the
    eigenvalue-1 witness appears in the deficiency graphs of both base and
    cover, which the induced covering joins, and that lam indeed lands in
    the cover spectrum.  A second, independent route to the same
    inclusion that :func:`spectral_inclusion_check` reaches via pullbacks.

    Every lam is checked first: a non-finite one is refused, as
    :func:`wgraph.core.deficiency_graph` refuses it, before anything is
    built.  Then ``induced_deficiency_covering(covering, lambdas[0], radius,
    side)`` is built and verified once, and that one verification covers
    every lam.  Its arcs, pairing and arc map do not depend on lam.  Each of
    its weights at lam is formed from arc weights, lam and R by the same
    elementwise numpy operations on cover and base (a product of two arc
    weights, a conjugate, a loop of weight -lam or 1, a product with
    -1/R^2), and ``verify_covering`` has shown ``cover.weight ==
    base.weight[arc_map]`` at the first lam.  Equal doubles differ at most in
    the sign of a zero, which no product, conjugate or loop turns into a
    difference that ``==`` sees, so at every lam each cover weight equals the
    base weight it projects to: the covering built at that lam would pass
    the same verification.  A weight that overflows at some lam (|lam|^2 or
    |lam| times a weight beyond the largest double) is the same inf or NaN
    on both sides, where that verification would have reported a NaN as a
    violation; only the dense fallback below cannot use such a graph, and
    refuses it with a ValueError.

    The witness is carried up the covering as the paper does: one
    ``np.linalg.eig`` of the base gives, for each lam, the eigenvector ``v``
    of the computed eigenvalue nearest lam, and the cover gets the lifted
    vector ``v o phi``.  On each side the distance of 1 to the deficiency
    spectrum, ``sigma_min(H - lam)^2 / R^2``, is bounded above by
    ``((rho + e)/R)^2``, with ``rho = ||(H - lam) v|| / ||v||`` taken from the
    arcs and ``e = 2 gamma_K (S + |lam|)`` the bound on its rounding (see
    ``wgraph.spectra._witness_distance`` for ``K`` and the derivation).  Where that bound is
    not ``<= tol`` (NaN included, and every lam when ``eig`` fails), the step
    reports the dense distance ``eigvalsh`` finds in the materialized
    deficiency graph instead.  ``base_witness`` and ``cover_witness`` are
    those two values.
    """
    _check_tol(tol)
    _checked(covering, "deficiency route")
    base_bound, cover_bound = norm_bound(covering.base), norm_bound(covering.cover)
    radius = _deficiency_radius(max(cover_bound, base_bound), radius)
    base_spec, cover_spec = covering.spectra
    if lambdas is None:
        lambdas = base_spec.values
    lambdas = [_check_lambda(lam) for lam in lambdas]
    # the search subset_check runs, bit for bit the least |lam - mu| over the cover spectrum
    dists = _nearest(np.array(lambdas, dtype=complex), cover_spec.as_array()).tolist()
    steps = []
    if lambdas:
        induced_deficiency_covering(covering, lambdas[0], radius, side)  # the one verification, for every lam
        base = materialize(covering.base)
        try:
            mu, vectors = np.linalg.eig(base)
        except np.linalg.LinAlgError:
            mu = vectors = None
        phi = _vertex_images(covering)
    for lam, sdist in zip(lambdas, dists):
        base_w = cover_w = float("nan")
        if vectors is not None:
            v = vectors[:, np.argmin(np.abs(mu - lam))]
            base_w = _witness_distance(covering.base, v, lam, radius, base_bound)
            cover_w = _witness_distance(covering.cover, v[phi], lam, radius, cover_bound)
        if not base_w <= tol:
            base_w = _deficiency_distance(covering.base, lam, radius, side)
        if not cover_w <= tol:
            cover_w = _deficiency_distance(covering.cover, lam, radius, side)
        steps.append(RouteStep(lam, base_w, cover_w, sdist, base_w <= tol and cover_w <= tol and sdist <= tol))
    return DeficiencyRouteReport(radius, tol, side, tuple(steps))
