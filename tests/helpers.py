"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from wgraph import (
    Arc,
    CoveringMap,
    FinSuppVector,
    GraphStructureError,
    GroupAction,
    GroupAlgebraElement,
    LabeledOrbitalGraph,
    LocalIsoResult,
    RadiusVerdict,
    RouteStep,
    Violation,
    WeightedGraph,
    induced_deficiency_covering,
    invert_word,
    make_graph,
    materialize,
    norm_bound,
    orbital_graph,
    voltage_cover,
)
from wgraph.core import _cmul
from wgraph.covering import _vertex_images
from wgraph.spectra import _distance_to_one, _witness_distance

ODOMETER_TRANSITIONS = {
    "a": {"0": ("1", "e"), "1": ("0", "a")},
    "e": {"0": ("0", "e"), "1": ("1", "e")},
}

GRIGORCHUK_TRANSITIONS = {
    "a": {"0": ("1", "e"), "1": ("0", "e")},
    "b": {"0": ("0", "a"), "1": ("1", "c")},
    "c": {"0": ("0", "a"), "1": ("1", "d")},
    "d": {"0": ("0", "e"), "1": ("1", "b")},
    "e": {"0": ("0", "e"), "1": ("1", "e")},
}


def schreier_tower(transitions, alphabet, element: GroupAlgebraElement, level: int) -> CoveringMap:
    """The covering of the level-``level`` orbital graph of ``element`` by its level-(level + 1)
    graph, both rooted at the word of the first letter.  A vertex drops its last letter; the arc
    of word g at point z goes to the base arc of g at ``z[:level]``, and a weight-0 completion
    arc goes to the reversal of its partner's image.  The first ``level`` letters of ``g z``
    depend only on ``z[:level]``, so endpoints commute with the map."""
    root = str(alphabet[0])
    cover, base = (orbital_graph(GroupAction.from_mealy(transitions, alphabet, n), root * n, element)
                   for n in (level + 1, level))
    c, b = cover.graph, base.graph
    base_arc = {(base.labels[k], b.vertices[b.target[k]]): k for k in base.labels}
    arc_map = [-1] * len(c.weight)
    for k, word in cover.labels.items():
        arc_map[k] = base_arc[(word, c.vertices[c.target[k]][:level])]
    for k, image in enumerate(arc_map):
        if image < 0:  # a weight-0 completion arc, whose partner is labeled
            arc_map[k] = int(b.pair[arc_map[c.pair[k]]])
    return CoveringMap(c, b, {v: v[:level] for v in c.vertices}, tuple(arc_map))


def odometer_action(level: int) -> GroupAction:
    """Binary add-one-with-carry transducer expanded to level-``level`` words."""
    return GroupAction.from_mealy(ODOMETER_TRANSITIONS, ["0", "1"], level)


def adjacency_element() -> GroupAlgebraElement:
    return GroupAlgebraElement({("a",): 1.0, ("a'",): 1.0})


def circulant_spectrum(n: int) -> np.ndarray:
    """Eigenvalues of the n-cycle adjacency matrix, sorted ascending."""
    return np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))


def unit_disk(rng: np.random.Generator, size=None) -> np.ndarray:
    r = np.sqrt(rng.uniform(0, 1, size=size))
    theta = rng.uniform(0, 2 * np.pi, size=size)
    return r * np.exp(1j * theta)


def random_graph(
    rng: np.random.Generator,
    max_n: int = 20,
    max_pairs: int | None = None,
    n: int | None = None,
) -> WeightedGraph:
    """Random weighted multigraph with a valid reversal pairing.

    Mixes mutually-paired arc pairs between distinct vertices, self-paired
    loops, and mutually-paired loop pairs; weights in the closed unit disk.
    Passing ``n`` fixes the vertex set, so two draws share it (composition
    needs that).
    """
    if n is None:
        n = int(rng.integers(1, max_n + 1))
    vertices = [f"v{i:02d}" for i in range(n)]
    if max_pairs is None:
        max_pairs = 2 * n
    arcs: list[tuple[str, str, complex]] = []
    pairing: list[int] = []
    for _ in range(int(rng.integers(0, max_pairs + 1))):
        s, t = rng.integers(0, n, size=2)
        u, v = vertices[s], vertices[t]
        if u == v and rng.random() < 0.5:
            arcs.append((u, u, complex(unit_disk(rng))))
            pairing.append(len(arcs) - 1)
        else:
            k = len(arcs)
            arcs.append((u, v, complex(unit_disk(rng))))
            arcs.append((v, u, complex(unit_disk(rng))))
            pairing.extend([k + 1, k])
    return make_graph(vertices, arcs, pairing)


def reference_format_complex(value) -> str:
    """``a+bi`` text of one value, scalar by scalar: ``repr`` of each part, no imaginary part when it is 0."""
    z = complex(value)
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def random_matrix(rng: np.random.Generator, max_n: int = 30) -> np.ndarray:
    n = int(rng.integers(1, max_n + 1))
    return unit_disk(rng, size=(n, n))


def random_involution(rng: np.random.Generator, d: int) -> tuple[int, ...]:
    perm = list(range(d))
    order = list(rng.permutation(d))
    while len(order) >= 2:
        i = order.pop()
        j = order.pop()
        if rng.random() < 0.7:
            perm[i], perm[j] = j, i
    return tuple(perm)


def random_voltage_cover(rng: np.random.Generator, max_n: int = 12, max_degree: int = 4):
    """Seeded voltage cover over a random base; returns (base, cover, covering)."""
    base = random_graph(rng, max_n=max_n, max_pairs=max_n)
    if not base.arcs:
        v = base.vertices[0]
        base = make_graph(base.vertices, [(v, v, complex(unit_disk(rng)))], [0])
    d = int(rng.integers(1, max_degree + 1))
    volts: list[tuple[int, ...] | None] = [None] * len(base.arcs)
    for k, p in enumerate(base.pairing):
        if volts[k] is not None:
            continue
        if p == k:
            volts[k] = random_involution(rng, d)
        else:
            perm = tuple(int(i) for i in rng.permutation(d))
            inv = [0] * d
            for i, j in enumerate(perm):
                inv[j] = i
            volts[k] = perm
            volts[p] = tuple(inv)
    cover, covering = voltage_cover(base, d, volts)
    return base, cover, covering


def random_finite_action(rng: np.random.Generator, max_points: int = 12, max_gens: int = 3) -> GroupAction:
    n = int(rng.integers(2, max_points + 1))
    points = tuple(f"p{i:02d}" for i in range(n))
    names = ["a", "b", "c"][: int(rng.integers(1, max_gens + 1))]
    perms = {name: tuple(int(i) for i in rng.permutation(n)) for name in names}
    return GroupAction(points, perms)


def random_element(rng: np.random.Generator, names, max_terms: int = 4, max_len: int = 2) -> GroupAlgebraElement:
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        length = int(rng.integers(1, max_len + 1))
        word = tuple(
            names[rng.integers(0, len(names))] + ("'" if rng.random() < 0.5 else "")
            for _ in range(length)
        )
        terms[word] = terms.get(word, 0j) + complex(unit_disk(rng))
    elem = GroupAlgebraElement(terms)
    if not elem:
        elem = GroupAlgebraElement({(names[0],): 1.0})
    return elem


def _reference_ball(g: LabeledOrbitalGraph, center: str, radius: int):
    dist = g.distances(center)
    verts = frozenset(v for v, d in dist.items() if d <= radius)
    out: dict[str, dict] = {v: {} for v in verts}
    inn: dict[str, dict] = {v: {} for v in verts}
    arcs = g.graph.arcs
    # the labeled arcs inside the ball, in arc-index order, read from their sources' out-arcs
    out_arcs = (np.flatnonzero(g.graph.source == g.graph.vertex_index(v)).tolist() for v in verts)
    for k in sorted(k for ks in out_arcs for k in ks if k in g.labels):
        a = arcs[k]
        if a.target in verts:
            out[a.source][g.labels[k]] = a.target
            inn[a.target][g.labels[k]] = a.source
    return verts, out, inn


def reference_ball_iso(gx: LabeledOrbitalGraph, vx: str, gy: LabeledOrbitalGraph, vy: str, radius: int):
    """Root-preserving label isomorphism of two balls by a synchronized
    traversal of both (the pairwise matcher the ball codes replace), or None."""
    xverts, xout, xinn = _reference_ball(gx, vx, radius)
    yverts, yout, yinn = _reference_ball(gy, vy, radius)
    if len(xverts) != len(yverts):
        return None
    fwd = {vx: vy}
    bwd = {vy: vx}
    queue = deque([vx])
    while queue:
        u = queue.popleft()
        u2 = fwd[u]
        for word in gx.alphabet:
            for mx, my in ((xout, yout), (xinn, yinn)):
                t = mx[u].get(word)
                t2 = my[u2].get(word)
                if (t is None) != (t2 is None):
                    return None
                if t is None:
                    continue
                if t in fwd:
                    if fwd[t] != t2:
                        return None
                elif t2 in bwd:
                    return None
                else:
                    fwd[t] = t2
                    bwd[t2] = t
                    queue.append(t)
    if len(fwd) != len(xverts):
        return None
    return fwd


def reference_local_iso(gx: LabeledOrbitalGraph, gy: LabeledOrbitalGraph, max_radius: int) -> LocalIsoResult:
    """Two-way ball matching by pairwise tests on per-vertex candidate lists
    that shrink with the radius; the first surviving candidate is the match."""
    xcand = {v: list(gy.graph.vertices) for v in gx.graph.vertices}
    ycand = {v: list(gx.graph.vertices) for v in gy.graph.vertices}
    verdicts = []
    failed = False
    for radius in range(max_radius + 1):
        if failed:
            verdicts.append(RadiusVerdict(radius, False, {}, {}))
            continue
        matches = []
        for g, h, cand in ((gx, gy, xcand), (gy, gx, ycand)):
            for v, ws in cand.items():
                cand[v] = [w for w in ws if reference_ball_iso(g, v, h, w, radius) is not None]
            matches.append({v: ws[0] if ws else None for v, ws in cand.items()})
        ok = all(m is not None for side in matches for m in side.values())
        verdicts.append(RadiusVerdict(radius, ok, *matches))
        failed = not ok
    return LocalIsoResult(tuple(verdicts))


# Arc-by-arc references for the array-backed core: the tuple implementations
# the arrays replaced, kept as oracles of a differential test.


def reference_complete_pairing(arcs: list[Arc]) -> list[int]:
    """Involutive reversal pairing for an arc list, appending weight-0
    reverse arcs to ``arcs`` for directions without a counterpart."""
    pairing = [-1] * len(arcs)
    buckets: dict[tuple[str, str], list[int]] = {}
    for k, a in enumerate(arcs):
        buckets.setdefault((a.source, a.target), []).append(k)
    for s, t in sorted({(min(s, t), max(s, t)) for s, t in buckets}):
        idx = buckets.get((s, t), [])
        if s == t:
            for k in idx:
                pairing[k] = k
            continue
        rev = buckets.get((t, s), [])
        for k, r in zip(idx, rev):
            pairing[k] = r
            pairing[r] = k
        for k in idx[len(rev):]:
            pairing[k] = len(arcs)
            pairing.append(k)
            arcs.append(Arc(t, s, 0j))
        for r in rev[len(idx):]:
            pairing[r] = len(arcs)
            pairing.append(r)
            arcs.append(Arc(s, t, 0j))
    return pairing


def reference_compose_with_pairs(graph: WeightedGraph, other: WeightedGraph):
    """Returns ``(arcs, pairing, pairs)`` of the composition, built arc by arc."""
    by_source: dict[str, list[int]] = {}
    for j, b in enumerate(other.arcs):
        by_source.setdefault(b.source, []).append(j)
    arcs: list[Arc] = []
    pairs: list[tuple[int, int] | None] = []
    pos: dict[tuple[int, int], int] = {}
    for i, a in enumerate(graph.arcs):
        for j in by_source.get(a.target, ()):
            b = other.arcs[j]
            pos[(i, j)] = len(arcs)
            arcs.append(Arc(a.source, b.target, a.weight * b.weight))
            pairs.append((i, j))
    same_skeleton = (
        len(graph.arcs) == len(other.arcs)
        and graph.pairing == other.pairing
        and all(a.source == b.source and a.target == b.target for a, b in zip(graph.arcs, other.arcs))
    )
    if same_skeleton:
        pairing = [0] * len(arcs)
        for (i, j), k in pos.items():
            pairing[k] = pos[(other.pairing[j], graph.pairing[i])]
    else:
        pairing = reference_complete_pairing(arcs)
        pairs.extend([None] * (len(arcs) - len(pairs)))
    return arcs, pairing, pairs


def reference_materialize(graph: WeightedGraph) -> np.ndarray:
    pos = {v: i for i, v in enumerate(graph.vertices)}
    m = np.zeros((graph.order, graph.order), dtype=complex)
    for a in graph.arcs:
        m[pos[a.source], pos[a.target]] += a.weight
    return m


def reference_residual(graph: WeightedGraph, v: np.ndarray, lam: complex) -> np.ndarray:
    """``(H - lam) v`` as ``_witness_distance`` once formed it: one product over every arc,
    summed per row and per part by ``bincount``, less ``lam v``."""
    n = graph.order
    terms = _cmul(graph.weight, v[graph.target])
    shift = _cmul(lam, v)
    residual = np.empty(n, dtype=complex)
    residual.real = np.bincount(graph.source, weights=terms.real, minlength=n) - shift.real
    residual.imag = np.bincount(graph.source, weights=terms.imag, minlength=n) - shift.imag
    return residual


def reference_form(op: WeightedGraph, vec: FinSuppVector) -> float:
    """``Re <H vec, vec>`` as the transfer once formed it on names: ``operator.apply`` summed
    ``H vec`` over the arcs that meet the support into a vector without zeros, and
    ``FinSuppVector.inner`` summed the products over the shared keys in sorted order."""
    values = np.zeros(op.order, dtype=complex)
    for k, c in vec.items():
        if k in op._vertex_pos:
            values[op._vertex_pos[k]] = c
    hit = np.flatnonzero(values[op.target] != 0)
    source = op.source[hit]
    terms = _cmul(op.weight[hit], values[op.target[hit]])
    real = np.bincount(source, weights=terms.real, minlength=op.order)
    imag = np.bincount(source, weights=terms.imag, minlength=op.order)
    hv = {op.vertices[i]: 0j + complex(real[i], imag[i]) for i in np.unique(source).tolist()}
    entries = dict(vec.items())
    keys = sorted(k for k in hv.keys() & entries.keys() if hv[k] != 0)
    return float(sum((hv[k] * entries[k].conjugate() for k in keys), 0j).real)


def reference_norm_bound(graph: WeightedGraph) -> float:
    outs = {v: 0.0 for v in graph.vertices}
    ins = {v: 0.0 for v in graph.vertices}
    for a in graph.arcs:
        w = abs(a.weight)
        outs[a.source] += w
        ins[a.target] += w
    return math.sqrt(max(outs.values()) * max(ins.values()))


def reference_verify_covering(covering: CoveringMap) -> list[Violation]:
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
    for i, j in enumerate(am):
        if not 0 <= j < len(base.arcs):
            raise GraphStructureError(f"arc map sends arc {i} to unknown arc index {j}")
    cov_arcs, base_arcs = list(cov.arcs), list(base.arcs)
    violations: list[Violation] = []
    for i, a in enumerate(cov_arcs):
        img = base_arcs[am[i]]
        if vm[a.source] != img.source or vm[a.target] != img.target:
            violations.append(
                Violation("endpoint", f"arc {i}", f"projects to arc {am[i]} with incompatible endpoints")
            )
        if am[cov.pairing[i]] != base.pairing[am[i]]:
            violations.append(Violation("pairing", f"arc {i}", "reversal does not commute with the arc map"))
        if complex(a.weight) != complex(img.weight):
            violations.append(Violation("weight", f"arc {i}", f"weight {a.weight} projects to {img.weight}"))
    for v in cov.vertices:
        images = sorted(am[i] for i, a in enumerate(cov_arcs) if a.source == v)
        expected = [j for j, b in enumerate(base_arcs) if b.source == vm[v]]
        if images != expected:
            violations.append(
                Violation(
                    "local_bijectivity",
                    f"vertex {v}",
                    "out-arcs do not map bijectively onto the base out-arcs",
                )
            )
    missing = sorted(set(base.vertices) - set(vm.values()))
    if missing:
        violations.append(Violation("surjectivity", f"vertices {missing}", "base vertices not covered"))
    return violations


# Name-based references for the orbital graphs: the implementations that word
# images and vertex positions replaced, kept as oracles of a differential test.


def reference_act_index(action: GroupAction, word, index: int) -> int:
    """Position of the image of point ``index`` under ``word``, the rightmost token first, read from
    ``action.perms`` alone: an inverse token finds the point that its generator sends to ``index``."""
    for token in reversed(word):
        perm = action.perms[token.removesuffix("'")]
        index = perm.index(index) if token.endswith("'") else perm[index]
    return index


def reference_orbit(action: GroupAction, start: str, words) -> tuple[str, ...]:
    wl = sorted({tuple(w) for w in words}, key=lambda w: (len(w), w))
    steps = []
    for w in wl:
        steps.append(w)
        if invert_word(w) != w:
            steps.append(invert_word(w))
    i0 = action.point_index(start)
    seen, order, queue = {i0}, [i0], deque([i0])
    while queue:
        i = queue.popleft()
        for w in steps:
            j = reference_act_index(action, w, i)
            if j not in seen:
                seen.add(j)
                order.append(j)
                queue.append(j)
    return tuple(action.points[i] for i in order)


def reference_from_mealy(transitions, alphabet, level: int) -> GroupAction:
    """The level-``level`` action of a valid transducer, each point's word walked letter by letter."""
    letters = tuple(str(x) for x in alphabet)
    points = tuple("".join(p) for p in itertools.product(letters, repeat=level))
    pos = {p: i for i, p in enumerate(points)}
    perms = {}
    for state in sorted(transitions):
        if state == "e":
            continue
        images = []
        for w in points:
            out_word, cur = [], state
            for ch in w:
                out, cur = transitions[cur][ch]
                out_word.append(str(out))
            images.append(pos["".join(out_word)])
        perms[state] = tuple(images)
    return GroupAction(points, perms)


def reference_orbital_graph(action: GroupAction, start: str, element: GroupAlgebraElement) -> LabeledOrbitalGraph:
    supp = element.support()
    pts = reference_orbit(action, start, supp)
    arcs, labels, index = [], {}, {}
    for g in supp:
        for z in pts:
            index[(g, z)] = len(arcs)
            labels[len(arcs)] = g
            arcs.append((action.points[reference_act_index(action, g, action.point_index(z))], z,
                         element.coefficient(g)))
    pairing = [-1] * len(arcs)
    for (g, z), k in index.items():
        if invert_word(g) in supp:
            pairing[k] = index[(invert_word(g), arcs[k][0])]
    for k in range(len(pairing)):
        if pairing[k] == -1:
            source, target, _ = arcs[k]
            pairing[k] = len(arcs)
            pairing.append(k)
            arcs.append((target, source, 0j))
    return LabeledOrbitalGraph(make_graph(pts, arcs, pairing), labels, start, supp)


def reference_adjacency(g: LabeledOrbitalGraph) -> dict:
    """Per vertex name, the out- and then the in-neighbour name along each alphabet word."""
    slot = {w: 2 * i for i, w in enumerate(g.alphabet)}
    adj = {v: [None] * (2 * len(g.alphabet)) for v in g.graph.vertices}
    arcs = list(g.graph.arcs)
    for k, word in g.labels.items():
        a = arcs[k]
        adj[a.source][slot[word]] = a.target
        adj[a.target][slot[word] + 1] = a.source
    return adj


def reference_distances(adj: dict, start: str) -> dict:
    """Distances along labeled edges, over the :func:`reference_adjacency` ``adj``."""
    neighbors = {v: sorted({w for w in ns if w is not None and w != v}) for v, ns in adj.items()}
    dist, queue = {start: 0}, deque([start])
    while queue:
        v = queue.popleft()
        for w in neighbors[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def reference_ball_code(adj: dict, root: str, radius: int):
    index, order, depth, code = {root: 0}, [root], [0], []
    for i, u in enumerate(order):
        for t in adj[u]:
            j = index.get(t)
            if j is None and t is not None and depth[i] < radius:
                j = index[t] = len(order)
                order.append(t)
                depth.append(depth[i] + 1)
            code.append(j)
    return tuple(code), order


def reference_ball(g: LabeledOrbitalGraph, dist: dict, radius: int) -> LabeledOrbitalGraph:
    """The induced labeled subgraph on the ball of ``radius`` around the vertex that the
    :func:`reference_distances` ``dist`` start from, rebuilt arc by arc with ``make_graph``."""
    center = next(iter(dist))
    inside = {v for v, d in dist.items() if d <= radius}
    arcs = list(g.graph.arcs)
    kept = [k for k, a in enumerate(arcs) if a.source in inside and a.target in inside]
    new = {k: i for i, k in enumerate(kept)}
    graph = make_graph(inside, [arcs[k] for k in kept], [new[g.graph.pairing[k]] for k in kept])
    labels = {new[k]: g.labels[k] for k in kept if k in g.labels}
    return LabeledOrbitalGraph(graph, labels, center, g.alphabet)


def reference_route_steps(covering: CoveringMap, radius: float, tol: float, side: str) -> tuple:
    """The steps of ``deficiency_route_check`` at every base eigenvalue, made as the route once
    made them: ``induced_deficiency_covering`` rebuilds and fully verifies the deficiency
    covering at each lambda, and a side that its witness does not certify reads the rebuilt
    graph."""
    lambdas = list(covering.spectra[0].values)
    cover_vals = covering.spectra[1].as_array()
    mu, vectors = np.linalg.eig(materialize(covering.base))
    phi = _vertex_images(covering)
    steps = []
    for lam in lambdas:
        at = induced_deficiency_covering(covering, lam, radius, side)
        v = vectors[:, np.argmin(np.abs(mu - lam))]
        base_w = _witness_distance(covering.base, v, lam, radius, norm_bound(covering.base))
        cover_w = _witness_distance(covering.cover, v[phi], lam, radius, norm_bound(covering.cover))
        if not base_w <= tol:
            base_w = _distance_to_one(materialize(at.base))
        if not cover_w <= tol:
            cover_w = _distance_to_one(materialize(at.cover))
        dist = float(np.min(np.abs(cover_vals - lam)))
        steps.append(RouteStep(lam, base_w, cover_w, dist, base_w <= tol and cover_w <= tol and dist <= tol))
    return tuple(steps)
