"""Command-line front end.

Subcommands:

* ``graph-op``   apply a graph operation and self-check it against the
                 equivalent matrix arithmetic
* ``spectrum``   eigenvalues of a graph or matrix, optionally with a
                 deficiency membership test for one point
* ``cover``      verify covering maps, lift graphs through voltage
                 assignments, check spectral inclusion along a covering
* ``orbital``    compare the orbital operators of a group-algebra element
                 at two base points
* ``demo-shift`` the one-sided shift walkthrough showing why both
                 deficiency sides are needed

Reports are ``KEY: value`` lines (or one JSON object with ``--json``) and
are byte-identical across repeated runs.  Exit codes: 0 success, 1 a
requested check failed, 2 bad input.  The ``covering`` and ``orbital``
layers are imported by the subcommands that run them: ``cover`` never
loads ``orbital``, and no other subcommand loads ``covering``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .core import add_scalar, adjoint, compose, deficiency_graph, scale
from .errors import WGraphError
from .fileio import (
    _complex_strings,
    format_complex,
    parse_complex,
    read_action,
    read_covering,
    read_element,
    read_graph,
    read_matrix,
    read_voltages,
    write_covering,
    write_graph,
    write_matrix,
)
from .operator import FinSuppVector, _check_dense, materialize
from .spectra import (
    DEFAULT_MEMBERSHIP_TOL, DEFAULT_SUBSET_TOL, _as_square_matrix, _deficiency_matrix, _in_pair,
    _spectrum_and_verdicts, shift_counterexample_report, spectrum,
)

__all__ = ["main", "build_parser"]


class Report:
    """Accumulates KEY: value lines plus a mirror JSON object."""

    def __init__(self):
        self.lines: list[str] = []
        self.data: dict = {}

    def kv(self, key: str, value, json_value=None):
        self.lines.append(f"{key}: {value}")
        jkey = key.lower().replace(" ", "-")
        self.data[jkey] = value if json_value is None else json_value

    def raw(self, line: str):
        self.lines.append(line)

    def jset(self, key: str, value):
        self.data[key] = value

    def rows(self, key: str, rows):
        """A text line per ``(line, item)`` of ``rows``, and their items as the JSON list ``key``."""
        self.data[key] = []
        for line, item in rows:
            self.lines.append(line)
            self.data[key].append(item)

    def emit(self, as_json: bool):
        if as_json:
            print(json.dumps(self.data, indent=2, sort_keys=True))
        else:
            for line in self.lines:
                print(line)


def _fmt(x: float) -> str:
    return repr(float(x))


def _spectrum_kv(rep: Report, key: str, spectral_set):
    values = _complex_strings(np.array(spectral_set.values, dtype=complex))
    rep.kv(key, " ".join(values), values)


def _self_check_deviation(graph, expect, result) -> float:
    """Max entry of ``|materialize(result) - expect(materialize(graph))|``.  The dense n x n
    copies set the memory peak, so the input's is freed once the expected matrix is built."""
    expected = expect(materialize(graph))
    got = materialize(result)
    got -= expected
    return float(np.max(np.abs(got), initial=0.0))


def _scale_op(args, graph, rep: Report):
    lam = parse_complex(args.factor)
    return lambda: scale(graph, lam), lambda m: lam * m


def _add_op(args, graph, rep: Report):
    lam = parse_complex(args.factor)
    return lambda: add_scalar(graph, lam), lambda m: m + lam * np.eye(graph.order)


def _adjoint_op(args, graph, rep: Report):
    return lambda: adjoint(graph), lambda m: m.conj().T


def _compose_op(args, graph, rep: Report):
    other = read_graph(args.other)
    rep.kv("OTHER ORDER", other.order)
    return lambda: compose(graph, other), lambda m: m @ materialize(other)


def _deficiency_op(args, graph, rep: Report):
    lam = parse_complex(args.lam)
    rep.kv("LAMBDA", format_complex(lam))
    rep.kv("R", _fmt(args.radius), args.radius)
    rep.kv("SIDE", args.side)

    def expect(m):
        m[np.diag_indices(graph.order)] -= lam  # shifted in place, one n x n copy fewer
        return _deficiency_matrix(m, args.radius, args.side)

    return lambda: deficiency_graph(graph, lam, args.radius, side=args.side), expect


def cmd_graph_op(args, rep: Report) -> int:
    if not 0 <= args.tol < np.inf:
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    graph = read_graph(args.graph)
    rep.kv("OPERATION", args.op)
    rep.kv("INPUT ORDER", graph.order)
    _check_dense(graph.order)  # the check materializes the input; an input past the cap is refused first
    # operation -> (the flags it needs and their attributes, a function that reads its inputs and
    # returns (build the result graph, the same operation on the input's dense matrix))
    flags, setup = {
        "scale": ({"--factor": "factor"}, _scale_op),
        "add": ({"--factor": "factor"}, _add_op),
        "adjoint": ({}, _adjoint_op),
        "compose": ({"--other": "other"}, _compose_op),
        "deficiency": ({"--lambda": "lam", "--R": "radius"}, _deficiency_op),
    }[args.op]
    if any(getattr(args, attr) is None for attr in flags.values()):
        raise ValueError(f"{args.op} needs {' and '.join(flags)}")
    build, expect = setup(args, graph, rep)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, not warned of
        result = build()
    if not np.isfinite(result.weight).all():
        raise ValueError(f"graph-op {args.op}: the result has a non-finite weight")
    rep.kv("RESULT ARCS", len(result.arcs))
    # The dense check spends its time in numpy, which releases the GIL, and the write in repr,
    # which holds it, so the two overlap; an error of the check is reported before one of the
    # write, as when they ran in turn.
    deviation, _ = _in_pair(graph.order, lambda: _self_check_deviation(graph, expect, result),
                            lambda: write_graph(result, args.out) if args.out is not None else None)
    ok = deviation <= args.tol
    rep.kv("SELF-CHECK DEVIATION", _fmt(deviation), deviation)
    rep.kv("SELF-CHECK", "ok" if ok else "FAILED", ok)
    if args.out is not None:
        rep.kv("WROTE", args.out)
    return 0 if ok else 1


def cmd_spectrum(args, rep: Report) -> int:
    if (args.graph is None) == (args.matrix is None):
        raise ValueError("give exactly one of --graph or --matrix")
    if args.graph is not None:
        m = materialize(read_graph(args.graph))
    else:
        m = read_matrix(args.matrix)
    rep.kv("ORDER", m.shape[0])
    if args.check_lambda is None:
        spec, verdict = spectrum(m), None
    else:
        m = _as_square_matrix(m, "spectrum")  # a bad matrix is refused before a bad point
        lam = parse_complex(args.check_lambda)
        spec, (verdict,) = _spectrum_and_verdicts(m, [lam], args.radius, args.tol)
    _spectrum_kv(rep, "SPECTRUM", spec)
    if verdict is not None:
        rep.kv("LAMBDA", format_complex(lam))
        rep.kv("R", _fmt(verdict.R_used), verdict.R_used)
        rep.kv("TOL", _fmt(args.tol), args.tol)
        rep.kv("MEMBER", "yes" if verdict.member else "no", verdict.member)
        rep.kv("SIDE", verdict.witness_side)
        rep.kv("DIST LEFT", _fmt(verdict.dist_left), verdict.dist_left)
        rep.kv("DIST RIGHT", _fmt(verdict.dist_right), verdict.dist_right)
    if args.out is not None:
        write_matrix(m, args.out)
        rep.kv("WROTE", args.out)
    return 0


def _cover_head(rep: Report, covering) -> list:
    """The two orders, the violation count and a ``VIOLATION:`` line per violation of
    ``covering``, which ``cover verify`` and ``cover include`` share; returns the violations
    as JSON items."""
    from .covering import verify_covering

    violations = verify_covering(covering)
    rep.kv("COVER ORDER", covering.cover.order)
    rep.kv("BASE ORDER", covering.base.order)
    rep.kv("VIOLATIONS", len(violations))
    for v in violations:
        rep.raw(f"VIOLATION: {v.kind} at {v.where}: {v.detail}")
    return [{"kind": v.kind, "where": v.where, "detail": v.detail} for v in violations]


def cmd_cover_verify(args, rep: Report) -> int:
    items = _cover_head(rep, read_covering(args.map))
    rep.jset("violation-list", items)
    rep.kv("VERIFIED", "ok" if not items else "FAILED", not items)
    return 0 if not items else 1


def cmd_cover_lift(args, rep: Report) -> int:
    from .covering import voltage_cover

    base = read_graph(args.graph)
    degree, volts = read_voltages(args.volt)
    cover, covering = voltage_cover(base, degree, volts)
    rep.kv("BASE ORDER", base.order)
    rep.kv("SHEETS", degree)
    rep.kv("COVER ORDER", cover.order)
    rep.kv("COVER ARCS", len(cover.arcs))
    rep.kv("VERIFIED", "ok", True)
    if args.out is not None:
        write_covering(covering, args.out)
        rep.kv("WROTE", args.out)
    return 0


def cmd_cover_include(args, rep: Report) -> int:
    from .covering import deficiency_route_check, spectral_inclusion_check

    covering = read_covering(args.map)
    if _cover_head(rep, covering):
        rep.kv("INCLUDED", "FAILED", False)
        return 1
    # the route refuses a bad --R or --tol before it computes the spectra, which both checks share
    route = deficiency_route_check(covering, radius=args.radius, tol=args.tol, side=args.side)
    inc = spectral_inclusion_check(covering, tol=args.tol)
    _spectrum_kv(rep, "BASE SPECTRUM", inc.base_spectrum)
    _spectrum_kv(rep, "COVER SPECTRUM", inc.cover_spectrum)
    rep.kv("INTERTWINING RESIDUAL", _fmt(inc.intertwining_residual), inc.intertwining_residual)
    rep.kv("SUBSET DEVIATION", _fmt(inc.subset.max_deviation), inc.subset.max_deviation)
    rep.kv("ROUTE R", _fmt(route.radius), route.radius)
    rep.kv("ROUTE SIDE", route.side)
    rep.rows("route-steps", ((
        f"STEP {i}: lambda={format_complex(st.lam)} base={_fmt(st.base_witness)} "
        f"cover={_fmt(st.cover_witness)} dist={_fmt(st.spectrum_distance)} {'ok' if st.ok else 'FAILED'}",
        {
            "lambda": format_complex(st.lam),
            "base-witness": st.base_witness,
            "cover-witness": st.cover_witness,
            "spectrum-distance": st.spectrum_distance,
            "ok": st.ok,
        },
    ) for i, st in enumerate(route.steps)))
    ok = inc.included and route.all_ok
    rep.kv("INCLUDED", "ok" if ok else "FAILED", ok)
    return 0 if ok else 1


def cmd_orbital(args, rep: Report) -> int:
    from .orbital import positive_element_graph, rayleigh_transfer, spectra_compare_orbits, word_str

    spec = read_action(args.action)
    action = spec.realize(args.level)
    element = read_element(args.element)
    comp = spectra_compare_orbits(
        action, action, args.x, args.y, element,
        tol=args.tol, max_radius=args.max_radius,
    )
    rep.kv("ELEMENT", " , ".join(
        f"{word_str(w)}:{format_complex(element.terms[w])}" for w in element.support()
    ))
    rep.kv("ORBIT X", f"{comp.root_x} size={comp.orbit_size_x}",
           {"root": comp.root_x, "size": comp.orbit_size_x})
    rep.kv("ORBIT Y", f"{comp.root_y} size={comp.orbit_size_y}",
           {"root": comp.root_y, "size": comp.orbit_size_y})
    rep.kv("R", _fmt(comp.radius), comp.radius)
    _spectrum_kv(rep, "SPECTRUM X", comp.spectrum_x)
    _spectrum_kv(rep, "SPECTRUM Y", comp.spectrum_y)
    rep.kv("HAUSDORFF", _fmt(comp.hausdorff), comp.hausdorff)
    rep.kv("LOCAL-ISO RADIUS", comp.max_common_radius)
    rep.kv("LOCAL-ISO SATURATED", "yes" if comp.saturated else "no", comp.saturated)
    misses = [c for c in comp.cross_checks if not (c.in_x.member and c.in_y.member)]
    rep.kv("CROSS-CHECKS", len(comp.cross_checks))
    rep.kv("CROSS-MISSES", len(misses))
    rep.rows("cross-miss-list", ((
        f"MISS: lambda={format_complex(c.lam)} "
        f"x={'yes' if c.in_x.member else 'no'} y={'yes' if c.in_y.member else 'no'}",
        format_complex(c.lam),
    ) for c in misses))
    code = 0
    reach = comp.graph_x.transfer_reach
    if comp.max_common_radius >= reach:
        match = comp.local_iso.radii[reach].x_matches[args.x]  # a passing radius matches every vertex
        alpha = comp.spectrum_x.values[-1]
        builder = lambda g: positive_element_graph(g, element, alpha, comp.radius)
        vx, vy = rayleigh_transfer(
            comp.graph_x, comp.graph_y, builder, FinSuppVector.delta(args.x), 0, (args.x, match)
        )
        dev = abs(vx - vy)
        rep.kv("TRANSFER ALPHA", format_complex(alpha))
        rep.kv("TRANSFER X", _fmt(vx), vx)
        rep.kv("TRANSFER Y", _fmt(vy), vy)
        rep.kv("TRANSFER DEVIATION", _fmt(dev), dev)
        ok = dev <= 1e-12
        rep.kv("TRANSFER", "ok" if ok else "FAILED", ok)
        if not ok:
            code = 1
    else:
        rep.kv("TRANSFER", "skipped (no match at transfer radius)", "skipped")
    return code


def cmd_demo_shift(args, rep: Report) -> int:
    report = shift_counterexample_report(depth=args.depth, trials=args.trials, seed=args.seed)
    rep.raw("shift-report 1")
    rep.kv("depth", report.depth)
    rep.kv("trials", report.trials)
    rep.raw(f"R: {_fmt(report.radius)}")
    rep.jset("radius", report.radius)
    checks = (("isometry S*S=I on delta_k (k<=depth)", "isometry-exact", report.isometry_exact),
              ("S S* delta_0 = 0", "corange-kills-origin", report.corange_kills_origin),
              ("<delta_0, S f> = 0 on random f", "range-orthogonal-to-origin", report.range_orthogonal_to_origin))
    for check, key, ok in checks:
        rep.raw(f"CHECK {check}: {'pass' if ok else 'FAIL'}")
        rep.jset(key, ok)
    for side, dist in (("right", report.right_distance), ("left", report.left_distance)):
        rep.raw(f"{side}-product distance of 1 at lambda=0: {_fmt(dist)}")
        rep.jset(f"{side}-distance", dist)
    misses = report.one_sided_misses_membership
    rep.jset("one-sided-misses-membership", misses)
    if misses:
        rep.raw("VERDICT: the right product I - S*S/R^2 reports lambda=0 invertible, yet delta_0 is orthogonal "
                "to the range of S, so 0 is in the spectrum; the left product witnesses it exactly.")
        rep.raw("A one-sided deficiency test is unsound for non-normal operators; "
                "membership must take the union over both product orders.")
    else:
        rep.raw("VERDICT: demonstration failed; see the check lines above.")
    rep.jset("passed", report.passed)
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """Takes ``-0.3+0.2i``, ``-2i`` or ``-1e-3`` after an option for its value.

    argparse reads an argument that starts with a minus as an option unless
    it is a plain negative decimal, so complex values need a wider pattern.
    No option of wgraph starts with a minus followed by a digit, a dot or ``i``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|i$)")


def _add_common(p: argparse.ArgumentParser, tol_default: float | None = None):
    """``--json`` everywhere; ``--tol`` only where the command reads it."""
    if tol_default is not None:
        p.add_argument("--tol", type=float, default=tol_default, help="numerical tolerance")
    p.add_argument("--json", action="store_true", help="emit one JSON object instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wgraph",
        description="weighted-graph operator algebra, coverings and orbital spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph-op", help="apply a graph operation with a matrix self-check")
    p.add_argument("op", choices=["scale", "add", "adjoint", "compose", "deficiency"])
    p.add_argument("--graph", required=True, help="input graph file (.wg)")
    p.add_argument("--other", help="second graph for compose")
    p.add_argument("--factor", help="complex factor for scale/add")
    p.add_argument("--lambda", dest="lam", help="spectral point for deficiency")
    p.add_argument("--R", dest="radius", type=float, help="deficiency radius")
    p.add_argument("--side", choices=["left", "right"], default="right")
    p.add_argument("--out", help="write the result graph here")
    _add_common(p, 1e-12)
    p.set_defaults(func=cmd_graph_op)

    p = sub.add_parser("spectrum", help="eigenvalues and optional membership test")
    p.add_argument("--graph", help="graph file (.wg)")
    p.add_argument("--matrix", help="matrix file (.mat)")
    p.add_argument("--check-lambda", help="test this point for spectral membership")
    p.add_argument("--R", dest="radius", type=float, help="membership radius (default 2x norm bound)")
    p.add_argument("--out", help="write the materialized matrix here")
    _add_common(p, DEFAULT_MEMBERSHIP_TOL)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("cover", help="covering-map tools")
    csub = p.add_subparsers(dest="subcommand", required=True)

    q = csub.add_parser("verify", help="check the covering axioms")
    q.add_argument("--map", required=True, help="covering file (.cov)")
    _add_common(q)
    q.set_defaults(func=cmd_cover_verify)

    q = csub.add_parser("lift", help="build a cover from a voltage assignment")
    q.add_argument("--graph", required=True, help="base graph file (.wg)")
    q.add_argument("--volt", required=True, help="voltage file (.volt)")
    q.add_argument("--out", help="write the covering here (.cov)")
    _add_common(q)
    q.set_defaults(func=cmd_cover_lift)

    q = csub.add_parser("include", help="spectral inclusion along a covering")
    q.add_argument("--map", required=True, help="covering file (.cov)")
    q.add_argument("--R", dest="radius", type=float, help="deficiency radius override")
    q.add_argument("--side", choices=["left", "right"], default="right")
    _add_common(q, DEFAULT_SUBSET_TOL)
    q.set_defaults(func=cmd_cover_include)

    p = sub.add_parser("orbital", help="compare orbital operators at two base points")
    p.add_argument("--action", required=True, help="action file (.act)")
    p.add_argument("--element", required=True, help="group-algebra element file (.elt)")
    p.add_argument("--x", required=True, help="first base point")
    p.add_argument("--y", required=True, help="second base point")
    p.add_argument("--level", type=int, help="expansion level for transducer actions")
    p.add_argument("--radius", dest="max_radius", type=int, help="cap for the local-iso scan")
    _add_common(p, DEFAULT_MEMBERSHIP_TOL)
    p.set_defaults(func=cmd_orbital)

    p = sub.add_parser("demo-shift", help="one-sided shift: why both deficiency sides matter")
    p.add_argument("--depth", type=int, default=100, help="how far out to test exact identities")
    p.add_argument("--trials", type=int, default=100, help="random vectors for the exact checks")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_demo_shift)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rep = Report()
    try:
        if getattr(args, "out", None) == "":  # refused before any input is read
            raise ValueError("--out needs a file path, got an empty one")
        code = args.func(args, rep)
        rep.emit(args.json)
        return code
    except (WGraphError, ValueError, OSError) as e:
        print(f"ERROR: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
