"""Orbital graphs of group actions and local spectral transfer.

A finite action is a set of named permutations of a point set; actions may
also be expanded from an invertible letter-transducer table level by
level.  A group-algebra element m (complex combination of generator
words) turns each orbit into a labeled weighted graph whose operator is
sum_g m(g) rho(g) restricted to the orbit, with rho(g) delta_z =
delta_{g z}.  Balls in these graphs carry enough structure to transport
Rayleigh quotients between orbits that look alike locally, which is what
connects the spectra of different orbits of the same element.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import WeightedGraph, _check_int, _check_ints, _check_pairing, deficiency_graph
from .errors import ActionError, DimensionCapError
from .operator import FinSuppVector, MAX_DENSE_DIM, _matvec, materialize
from .spectra import (
    DEFAULT_MEMBERSHIP_TOL,
    MembershipVerdict,
    SpectralSet,
    _as_square_matrix,
    _check_tol,
    _deficiency_radius,
    _spectrum_and_verdicts,
    hausdorff_distance,
)

__all__ = [
    "IDENTITY_TOKEN",
    "GroupAction",
    "GroupAlgebraElement",
    "LabeledOrbitalGraph",
    "LocalIsoResult",
    "RadiusVerdict",
    "OrbitComparison",
    "MembershipCross",
    "parse_word",
    "word_str",
    "invert_word",
    "orbit",
    "orbital_graph",
    "default_radius_bound",
    "ball",
    "local_iso_check",
    "positive_element_graph",
    "rayleigh_transfer",
    "spectra_compare_orbits",
]

IDENTITY_TOKEN = "e"


def _check_token(token: str) -> str:
    base = token[:-1] if token.endswith("'") else token
    if not base or "'" in base or any(ch.isspace() for ch in base):
        raise ActionError(f"bad generator token {token!r}")
    if base == IDENTITY_TOKEN:
        raise ActionError(f"{IDENTITY_TOKEN!r} is reserved for the identity word")
    return token


def _check_generator_name(name: str):
    if _check_token(name).endswith("'"):
        raise ActionError(f"generator name {name!r} may not end with an apostrophe")


def parse_word(text: str) -> tuple[str, ...]:
    """Parse "a a' b" into a word; the single token "e" is the empty word."""
    toks = text.split()
    if toks == [IDENTITY_TOKEN]:
        return ()
    return tuple(_check_token(t) for t in toks)


def word_str(word: tuple[str, ...]) -> str:
    return " ".join(word) if word else IDENTITY_TOKEN


def _flip(token: str) -> str:
    return token[:-1] if token.endswith("'") else token + "'"


def invert_word(word: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(_flip(t) for t in reversed(word))


def _word_key(word: tuple[str, ...]):
    return (len(word), word)


@dataclass(frozen=True)
class GroupAction:
    """Finite action given by named generator permutations.

    ``points`` is an ordered point set; ``perms[name][i]`` is the position
    of the image of ``points[i]`` under the generator.  Words act with the
    rightmost token first, so a word behaves like the product of its
    generators.  The name "e" is reserved for the identity word.
    """

    points: tuple[str, ...]
    perms: dict = field(hash=False)

    def __post_init__(self):
        if not self.points:
            raise ActionError("an action needs at least one point")
        for p in self.points:
            if not p or any(ch.isspace() for ch in p):
                raise ActionError(f"point id {p!r} is empty or contains whitespace")
        if len(set(self.points)) != len(self.points):
            raise ActionError("duplicate point ids")
        n = len(self.points)
        for name, perm in self.perms.items():
            _check_generator_name(name)
            _check_ints(perm, f"generator {name!r} image", ActionError)
            if sorted(perm) != list(range(n)):
                raise ActionError(f"generator {name!r} is not a permutation of the point set")

    @cached_property
    def _pos(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def _images(self) -> dict:
        """Each token's image array: a generator's permutation, and its inverse under ``name'``."""
        images = {}
        for name, perm in self.perms.items():
            images[name] = np.asarray(perm)
            images[name + "'"] = np.argsort(images[name])
        return images

    def point_index(self, point: str) -> int:
        try:
            return self._pos[point]
        except KeyError:
            raise ActionError(f"unknown point {point!r}") from None

    def generator_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.perms))

    def _word_image(self, word: tuple[str, ...]) -> np.ndarray:
        """Position of the image of every point under ``word``, the rightmost token applied first."""
        image = np.arange(len(self.points))
        for token in reversed(word):
            if token not in self._images:
                base = token.removesuffix("'")
                raise ActionError(f"unknown generator {base!r}")
            image = self._images[token][image]
        return image

    @classmethod
    def from_mealy(cls, transitions, alphabet, level: int) -> "GroupAction":
        """Expand an invertible letter transducer to its level-n word action.

        ``transitions[state][letter] = (output_letter, next_state)``; the
        output letters of every state must permute the alphabet (that is
        what makes each state act bijectively).  Points are the length-n
        words over the alphabet in lexicographic order; each state becomes
        a generator, except that a state named "e" stays internal (usable
        in transitions, never as a word token).
        """
        letters = tuple(str(x) for x in alphabet)
        if not letters or len(set(letters)) != len(letters):
            raise ActionError("alphabet must be nonempty without repeats")
        if any(len(ch) != 1 for ch in letters):
            raise ActionError("alphabet letters must be single characters")
        level = _check_int(level, "level", ActionError)
        if level < 1:
            raise ActionError("level must be at least 1")
        if len(letters) ** level > MAX_DENSE_DIM:
            raise DimensionCapError(
                f"level {level} over {len(letters)} letters exceeds the {MAX_DENSE_DIM}-point cap"
            )
        states = set(transitions)
        for state, row in transitions.items():
            if set(row.keys()) != set(letters):
                raise ActionError(f"state {state!r} must have one transition per letter")
            outs = sorted(str(out) for out, _ in row.values())
            if outs != sorted(letters):
                raise ActionError(f"state {state!r} does not permute the alphabet; not invertible")
            for out, nxt in row.values():
                if nxt not in states:
                    raise ActionError(f"state {state!r} references unknown state {nxt!r}")

        points = tuple("".join(p) for p in itertools.product(letters, repeat=level))
        letter_index = {x: i for i, x in enumerate(letters)}
        # a state's image of "x w" is its output letter for x, then its successor's image
        # of w: the output's index times |A|^(L-1) plus that image, one level shorter
        images = dict.fromkeys(states, np.zeros(1, dtype=int))
        for length in range(1, level + 1):
            block = len(letters) ** (length - 1)
            images = {
                state: np.concatenate([letter_index[str(out)] * block + images[nxt]
                                       for out, nxt in (row[x] for x in letters)])
                for state, row in transitions.items()
            }
        perms = {state: tuple(images[state].tolist())
                 for state in sorted(states) if state != IDENTITY_TOKEN}
        return cls(points, perms)


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Finite complex combination of generator words."""

    terms: dict

    def __post_init__(self):
        clean = {}
        for word, coeff in self.terms.items():
            w = tuple(_check_token(t) for t in word)
            c = complex(coeff)
            if c != 0:
                clean[w] = clean.get(w, 0j) + c
        object.__setattr__(self, "terms", {w: c for w, c in clean.items() if c != 0})

    @classmethod
    def from_pairs(cls, pairs) -> "GroupAlgebraElement":
        terms: dict = {}
        for word, coeff in pairs:
            w = tuple(word)
            terms[w] = terms.get(w, 0j) + complex(coeff)
        return cls(terms)

    def support(self) -> tuple[tuple[str, ...], ...]:
        return tuple(sorted(self.terms, key=_word_key))

    def coefficient(self, word) -> complex:
        return self.terms.get(tuple(word), 0j)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


def default_radius_bound(element: GroupAlgebraElement) -> float:
    """Safe deficiency radius: twice the total coefficient weight.

    The orbital operator of ``element`` has norm at most
    ``sum_g |m(g)|`` on any orbit, so twice that sum dominates twice the
    norm regardless of the orbit chosen.
    """
    if not element:
        raise ActionError("the zero element has no radius bound")
    return 2.0 * sum(abs(element.terms[w]) for w in element.support())


def orbit(action: GroupAction, start: str, words) -> tuple[str, ...]:
    """Closure of ``start`` under the words and their inverses, in BFS order."""
    return tuple(action.points[i] for i in _orbit(action, start, words)[0])


def _orbit(action: GroupAction, start: str, words) -> tuple[list[int], dict]:
    """:func:`orbit` as point positions, with each step word's image of every point, a column of
    one int32 table whose row ``i`` lists the neighbours of point ``i``.  It owns the arc budget:
    the images and their arcs, one per step and point, are checked before any is built."""
    from .operator import MAX_ARCS

    wl = sorted({tuple(w) for w in words}, key=_word_key)
    if not wl:
        raise ActionError("orbit needs at least one word")
    # the search tries each word, then its inverse; a repeated step keeps its first place
    steps = list(dict.fromkeys(step for w in wl for step in (w, invert_word(w))))
    arcs = len(steps) * len(action.points)
    if arcs > MAX_ARCS:
        raise DimensionCapError(f"the orbital graph of {len(steps)} words and inverses on {len(action.points)} points "
                                f"would have up to {arcs} arcs; the arc cap is {MAX_ARCS}")
    i0 = action.point_index(start)
    table = np.empty((len(action.points), len(steps)), dtype=np.int32)  # the arc budget keeps positions below 2^24
    for k, step in enumerate(steps):
        table[:, k] = action._word_image(step)
    # the search reads each row through a memoryview, with no Python int held per step and point
    flat = memoryview(table.reshape(-1))
    rows = [flat[i * len(steps):(i + 1) * len(steps)] for i in range(len(table))]
    return _bfs(rows, i0)[0], dict(zip(steps, table.T))


@dataclass(frozen=True)
class LabeledOrbitalGraph:
    """Orbit graph of a group-algebra element with word labels on arcs.

    ``labels[k]`` is the support word realized by arc ``k``; weight-0
    reversal-completion arcs carry no label and take no part in distances
    or label isomorphism.  ``alphabet`` is the canonical support word list.
    """

    graph: WeightedGraph
    labels: dict = field(hash=False)
    root: str
    alphabet: tuple

    @cached_property
    def _adjacency(self) -> list:
        """Word-indexed adjacency: per vertex position, the position of the
        out- and then the in-neighbour along each alphabet word in alphabet
        order, -1 where the vertex has no such labeled arc."""
        g = self.graph
        slot = {w: 2 * i for i, w in enumerate(self.alphabet)}
        labeled = np.fromiter(self.labels, dtype=np.intp, count=len(self.labels))
        column = np.fromiter(map(slot.get, self.labels.values()), dtype=np.intp, count=len(self.labels))
        adj = np.full((len(g.vertices), 2 * len(self.alphabet)), -1, dtype=np.int32)
        adj[g.source[labeled], column] = g.target[labeled]
        adj[g.target[labeled], column + 1] = g.source[labeled]
        return list(map(tuple, adj.tolist()))

    @cached_property
    def _neighbors(self) -> list:
        """Per vertex position, the positions of its other labeled neighbours in
        ascending order, which is name order since ``vertices`` is sorted."""
        return [tuple(sorted({w for w in ns if w >= 0 and w != v}))
                for v, ns in enumerate(self._adjacency)]

    @property
    def transfer_reach(self) -> int:
        """Default reach of :func:`rayleigh_transfer`: the longest label word, at least 1."""
        return max([1] + [len(w) for w in self.alphabet])

    def distances(self, start: str) -> dict:
        """Combinatorial distances from ``start`` along labeled edges.

        Direction and weights are ignored; loops never shorten anything.
        """
        order, dist = _bfs(self._neighbors, self.graph.vertex_index(start))
        names = self.graph.vertices
        return {names[v]: dist[v] for v in order}

    def diameter(self) -> int:
        """Largest distance between two connected vertices.

        A double sweep gives a lower bound.  Where it reaches n - 1, the
        largest value possible (as on Grigorchuk Schreier graphs, which
        are paths), that is the diameter; otherwise every vertex gets a
        breadth-first search.
        """
        adj = self._neighbors
        lower = max(_bfs(adj, _bfs(adj, 0)[0][-1])[1])
        if lower == len(adj) - 1:
            return lower
        return max(max(_bfs(adj, v)[1]) for v in range(len(adj)))


def _bfs(adj: list, start: int) -> tuple[list[int], list[int]]:
    """Breadth-first search over neighbour position lists: the visit order,
    which ends at a vertex farthest from ``start``, and each vertex's
    distance from ``start`` (-1 where unreached)."""
    dist = [-1] * len(adj)
    dist[start] = 0
    order = [start]
    for v in order:  # the loop also visits vertices appended below
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                order.append(w)
    return order, dist


def orbital_graph(action: GroupAction, start: str, element: GroupAlgebraElement) -> LabeledOrbitalGraph:
    """Labeled graph of one orbit under a group-algebra element.

    For each support word g and orbit point z there is one arc
    ``g z -> z`` with weight m(g), so the graph operator is
    ``sum_g m(g) P_g`` for the orbit permutation matrices P_g
    (``P_g delta_z = delta_{g z}``); this is the restriction of the
    permutation representation of the element to the block spanned by the
    orbit.  Arcs of mutually inverse support words are each other's
    reversals; a support word without its inverse gets weight-0 reverse
    arcs so the pairing stays total; the orbit search checks the arc budget.
    """
    if not element:
        raise ActionError("cannot build the orbital graph of the zero element")
    supp = element.support()
    order, images = _orbit(action, start, supp)
    n, orb = len(order), np.asarray(order)
    names = [action.points[i] for i in order]
    by_name = sorted(range(n), key=names.__getitem__)
    # vertex[i] is the position of point i among the sorted orbit names, step[i] its place in order
    vertex = np.full(len(action.points), -1)
    vertex[orb[by_name]] = np.arange(n)
    step = np.full(len(action.points), -1)
    step[orb] = np.arange(n)
    # arc k * n + i runs from g z to z, for the k-th support word g and the i-th orbit
    # point z; the arc of g's inverse word at g z reverses it
    moved = [images[g][orb] for g in supp]
    source = vertex[np.concatenate(moved)]
    target = np.tile(vertex[orb], len(supp))
    weight = np.repeat(np.array([element.coefficient(g) for g in supp]), n)
    word_index = {g: k for k, g in enumerate(supp)}
    pair = np.full(len(supp) * n, -1)
    for k, g in enumerate(supp):
        h = word_index.get(invert_word(g))
        if h is not None:
            pair[k * n:(k + 1) * n] = h * n + step[moved[k]]
    # the arcs of a word whose inverse is not in the support get weight-0 reversals
    lone = np.flatnonzero(pair < 0)
    pair[lone] = len(pair) + np.arange(len(lone))
    source, target = np.concatenate([source, target[lone]]), np.concatenate([target, source[lone]])
    pair = np.concatenate([pair, lone])
    _check_pairing(source, target, pair.tolist())
    graph = WeightedGraph(tuple(names[i] for i in by_name), source, target,
                          np.concatenate([weight, np.zeros(len(lone))]), pair)
    labels = dict(enumerate(g for g in supp for _ in range(n)))
    return LabeledOrbitalGraph(graph, labels, start, supp)


def ball(orbital: LabeledOrbitalGraph, center: str, radius: int) -> LabeledOrbitalGraph:
    """Induced labeled subgraph on the radius-``radius`` ball around ``center``."""
    radius = _check_int(radius, "radius")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    g = orbital.graph
    dist = np.asarray(_bfs(orbital._neighbors, g.vertex_index(center))[1])
    inside = (dist >= 0) & (dist <= radius)
    # vertices stay sorted, so a kept vertex's new position counts the kept ones before it
    position = np.cumsum(inside) - 1
    kept = np.flatnonzero(inside[g.source] & inside[g.target])
    # a reversal swaps endpoints, so it survives exactly when the arc does
    remap = np.full(len(g.weight), -1)
    remap[kept] = np.arange(len(kept))
    graph = WeightedGraph(
        tuple(v for v, ok in zip(g.vertices, inside.tolist()) if ok),
        position[g.source[kept]],
        position[g.target[kept]],
        g.weight[kept],
        remap[g.pair[kept]],
    )
    labels = {i: orbital.labels[k] for i, k in enumerate(kept.tolist()) if k in orbital.labels}
    return LabeledOrbitalGraph(graph, labels, center, orbital.alphabet)


def _ball_code(g: LabeledOrbitalGraph, root: str, radius: int):
    """Canonical code of the rooted ball of ``radius`` around ``root``.

    Labels are deterministic (at most one out- and one in-arc per word and
    vertex), so a breadth-first traversal that probes the words in alphabet
    order, out-arcs before in-arcs, and stops discovering vertices at depth
    ``radius`` numbers the ball canonically.  Each probe records the
    neighbour's visit index, or None when there is no arc or the neighbour
    lies outside the ball.  Two rooted balls are label-isomorphic exactly
    when their codes are equal, and pairing their visit orders is then the
    isomorphism.  Returns ``(code, order)``.
    """
    start = g.graph.vertex_index(root)
    adj = g._adjacency
    index = {start: 0}
    order = [start]
    depth = [0]
    code = []
    for i, u in enumerate(order):  # the loop also visits vertices appended below
        inside = depth[i] < radius
        for t in adj[u]:
            j = index.get(t)
            if j is None and t >= 0 and inside:
                j = index[t] = len(order)
                order.append(t)
                depth.append(depth[i] + 1)
            code.append(j)
    names = g.graph.vertices
    return tuple(code), [names[v] for v in order]


@dataclass(frozen=True)
class RadiusVerdict:
    radius: int
    ok: bool
    x_matches: Mapping = field(hash=False)  # x vertex -> first matching y vertex or None, coded on each read
    y_matches: Mapping = field(hash=False)  # y vertex -> first matching x vertex or None, coded on each read


@dataclass(frozen=True)
class LocalIsoResult:
    radii: tuple[RadiusVerdict, ...]

    @property
    def max_ok_radius(self) -> int:
        """Largest radius that passed (-1 if even radius 0 failed)."""
        best = -1
        for v in self.radii:
            if v.ok:
                best = v.radius
            else:
                break
        return best


def _same_adjacency(gx: LabeledOrbitalGraph, gy: LabeledOrbitalGraph) -> bool:
    """Whether both graphs have the same vertices and labeled adjacency, so
    that every ball of one is the same ball of the other.  One action with
    both roots in one orbit gives this, with arcs listed in another order."""
    return gx.graph.vertices == gy.graph.vertices and gx._adjacency == gy._adjacency


def _codes(g: LabeledOrbitalGraph, radius: int) -> dict:
    """Each vertex of ``g`` -> the code of its ball of ``radius``."""
    return {v: _ball_code(g, v, radius)[0] for v in g.graph.vertices}


class _Matches(Mapping):
    """Read-only first-match map from the vertices of ``g`` into ``other`` at one radius.

    Keys and length come from ``g``'s vertex list.  Reading a value is
    :func:`_first_match`, and nothing is kept, so no code outlives a read.
    """

    def __init__(self, g: LabeledOrbitalGraph, other: LabeledOrbitalGraph, radius: int):
        self._g, self._other, self._radius = g, other, radius

    def __getitem__(self, vertex):
        if vertex not in self:
            raise KeyError(vertex)
        return _first_match(self._g, self._other, vertex, self._radius)

    def __contains__(self, vertex) -> bool:
        return vertex in self._g.graph._vertex_pos

    def __iter__(self):
        return iter(self._g.graph.vertices)

    def __len__(self) -> int:
        return len(self._g.graph.vertices)

    def __repr__(self) -> str:
        # each read codes balls, so the map shows only its size
        return f"<{len(self)} matches, coded when read>"


def _check_max_radius(max_radius: int):
    """Refuse a non-integer or negative ball radius, and one past ``MAX_DENSE_DIM``, which no orbit
    within the dense cap has as its diameter, before a verdict is built for each radius."""
    _check_int(max_radius, "max_radius")
    if max_radius < 0:
        raise ValueError("max_radius must be nonnegative")
    if max_radius > MAX_DENSE_DIM:
        raise ValueError(f"max_radius {max_radius} exceeds the dense cap {MAX_DENSE_DIM}")


def local_iso_check(gx: LabeledOrbitalGraph, gy: LabeledOrbitalGraph, max_radius: int) -> LocalIsoResult:
    """Per-radius two-way rooted ball matching between two labeled graphs.

    For each radius l <= max_radius, every radius-l ball of one graph must
    be rooted-label-isomorphic to some ball of the other, and vice versa.
    Each ball is reduced to its canonical code (see :func:`_ball_code`),
    and a vertex's match is the first vertex, in the other graph's vertex
    order, whose ball has the same code.  A radius passes when both graphs
    have the same set of codes.  Passing is monotone in the radius (a
    ball's radius-(l-1) code is a function of its radius-l code), so the
    first failing radius is found by probing radii 0, 1, 3, 7, ... up to
    ``max_radius`` and bisecting between the last pass and the first fail;
    all radii past it are reported failed with empty matches.  When both
    graphs have the same labeled adjacency, the identity map passes every
    radius and no ball is coded.  The match maps of the passing radii and
    of the first failing one are read-only mappings that code on each read:
    reading a vertex codes its ball, then the other graph's balls in vertex
    order up to its match, and keeps nothing, so reading a whole map codes
    far more balls than the search does.
    """
    if gx.alphabet != gy.alphabet:
        raise ActionError("label alphabets differ; the graphs come from different elements")
    _check_max_radius(max_radius)
    same = _same_adjacency(gx, gy)
    failed = max_radius + 1  # the first failing radius, past the cap when none fails
    if not same:
        def passes(r):
            return set(_codes(gx, r).values()) == set(_codes(gy, r).values())

        lo, hi = -1, 0  # the last radius known to pass, and the next probe: 0, 1, 3, 7, ... up to the cap
        while hi <= max_radius and passes(hi):
            lo, hi = hi, max(hi + 1, min(2 * hi + 1, max_radius))
        while hi - lo > 1:  # hi failed: bisect for the first failure
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if passes(mid) else (lo, mid)
        failed = hi
    verdicts = []
    for radius in range(max_radius + 1):
        if radius > failed:
            verdicts.append(RadiusVerdict(radius, False, {}, {}))
            continue
        verdicts.append(RadiusVerdict(radius, radius < failed, _Matches(gx, gy, radius), _Matches(gy, gx, radius)))
    return LocalIsoResult(tuple(verdicts))


def _first_match(gx: LabeledOrbitalGraph, gy: LabeledOrbitalGraph, x: str, radius: int):
    """The first vertex of ``gy``, in vertex order, whose ball of ``radius`` has the code of the
    ball around ``x`` in ``gx``, or None: what ``x_matches[x]`` of :func:`local_iso_check` reads
    at that radius, with only x's ball and the balls of ``gy`` up to the match coded."""
    code = _ball_code(gx, x, radius)[0]
    return next((v for v in gy.graph.vertices if _ball_code(gy, v, radius)[0] == code), None)


def positive_element_graph(
    orbital: LabeledOrbitalGraph,
    element: GroupAlgebraElement,
    center_value,
    radius: float,
) -> WeightedGraph:
    """Deficiency graph of the orbital operator at ``center_value``.

    Materializes to ``I - (H - c)(H - c)*/radius^2``: Hermitian, positive
    semidefinite and of norm at most 1 once ``radius`` dominates
    :func:`default_radius_bound` and ``|c| <= radius/2``, and it has
    eigenvalue 1 exactly when ``c`` lies in the orbital spectrum.
    """
    if element.support() != tuple(orbital.alphabet):
        raise ActionError("element support does not match the graph labels")
    radius = _deficiency_radius(default_radius_bound(element) / 2.0, radius)
    if abs(complex(center_value)) > radius / 2.0 + 1e-9 * max(1.0, radius):
        raise ValueError(f"|center value| exceeds radius/2 = {radius / 2.0}")
    return deficiency_graph(orbital.graph, center_value, radius, side="left")


def rayleigh_transfer(
    gx: LabeledOrbitalGraph,
    gy: LabeledOrbitalGraph,
    s_builder,
    vec: FinSuppVector,
    support_radius: int,
    match: tuple[str, str],
) -> tuple[float, float]:
    """Transport a ball-supported vector and compare quadratic forms.

    ``match = (vx, vy)`` is a root pair found by :func:`local_iso_check`;
    ``vec`` must be supported in the radius-``support_radius`` ball around
    ``vx``.  ``s_builder`` maps a labeled orbital graph to the operator
    graph whose quadratic form is compared (for example a
    :func:`positive_element_graph` closure); it receives the :func:`ball`
    of radius ``support_radius + gx.transfer_reach`` around each root, and
    the two balls must be isomorphic.  A product of two element factors
    reaches a support row only through arcs of that ball, and gets the
    same terms in the same order as on the whole orbit, so both quadratic
    forms are the whole-orbit ones bit for bit.

    Returns ``(value_x, value_y)`` with ``value = Re <H vec, vec>``, summed on ball positions.
    """
    vx, vy = match
    radius = _check_int(support_radius, "support_radius") + gx.transfer_reach
    code_x, order_x = _ball_code(gx, vx, radius)
    code_y, order_y = _ball_code(gy, vy, radius)
    if gx.alphabet != gy.alphabet or code_x != code_y:
        raise ActionError(
            f"balls of radius {radius} around {vx!r} and {vy!r} are not isomorphic; "
            "match radius insufficient"
        )
    near = set(ball(gx, vx, support_radius).graph.vertices)
    escaped = [k for k in vec.support() if k not in near]
    if escaped:
        raise ActionError(
            f"vector support escapes the radius-{support_radius} ball around {vx!r}: {escaped[:3]}"
        )
    iso = dict(zip(order_x, order_y))
    return (_form(s_builder(ball(gx, vx, radius)), dict(vec.items())),
            _form(s_builder(ball(gy, vy, radius)), {iso[k]: c for k, c in vec.items()}))


def _form(op: WeightedGraph, entries: dict) -> float:
    """``Re <H v, v>`` for the vertex -> value ``entries`` of ``v``: the sum from 0j of the Python
    products ``(H v)_i conj(v_i)`` over the support rows where ``H v`` is not 0, in vertex order."""
    v = np.zeros(op.order, dtype=complex)
    v[[op.vertex_index(k) for k in entries]] = list(entries.values())
    hv = _matvec(op, v)
    rows = np.flatnonzero((v != 0) & (hv != 0)).tolist()
    return sum((complex(hv[i]) * complex(v[i]).conjugate() for i in rows), 0j).real


@dataclass(frozen=True)
class MembershipCross:
    lam: complex
    in_x: MembershipVerdict
    in_y: MembershipVerdict


@dataclass(frozen=True)
class OrbitComparison:
    root_x: str
    root_y: str
    orbit_size_x: int
    orbit_size_y: int
    radius: float
    spectrum_x: SpectralSet
    spectrum_y: SpectralSet
    hausdorff: float
    local_iso: LocalIsoResult
    max_common_radius: int
    saturated: bool
    cross_checks: tuple[MembershipCross, ...]
    graph_x: LabeledOrbitalGraph
    graph_y: LabeledOrbitalGraph


def spectra_compare_orbits(
    action_x: GroupAction,
    action_y: GroupAction,
    x: str,
    y: str,
    element: GroupAlgebraElement,
    tol: float = DEFAULT_MEMBERSHIP_TOL,
    max_radius: int | None = None,
) -> OrbitComparison:
    """Compare the orbital operators of one element at two base points.

    Reports both spectra, their Hausdorff distance, the largest radius at
    which the two graphs are locally indistinguishable (capped one past
    the larger diameter unless ``max_radius`` overrides; ``saturated``
    means the cap itself passed), and per-eigenvalue membership
    cross-checks of the x-spectrum against both operators at the
    element's default radius bound.  The two labeled orbital graphs come
    back as ``graph_x`` and ``graph_y`` for follow-up checks.
    """
    if max_radius is not None:
        _check_max_radius(max_radius)
    _check_tol(tol)
    gx = orbital_graph(action_x, x, element)
    gy = orbital_graph(action_y, y, element)
    # one element on the same labeled adjacency materializes to the same matrix bit for bit
    same = _same_adjacency(gx, gy)
    radius = default_radius_bound(element)
    sx, in_x = _spectrum_and_verdicts(_as_square_matrix(materialize(gx.graph), "spectrum"), None, radius, tol)
    sy, in_y = (sx, in_x) if same else _spectrum_and_verdicts(
        _as_square_matrix(materialize(gy.graph), "spectrum"), sx.values, radius, tol)
    cap = max_radius if max_radius is not None else (
        gx.diameter() if same else max(gx.diameter(), gy.diameter())) + 1
    iso = local_iso_check(gx, gy, cap)
    return OrbitComparison(
        root_x=x,
        root_y=y,
        orbit_size_x=len(gx.graph.vertices),
        orbit_size_y=len(gy.graph.vertices),
        radius=radius,
        spectrum_x=sx,
        spectrum_y=sy,
        hausdorff=hausdorff_distance(sx, sy),
        local_iso=iso,
        max_common_radius=iso.max_ok_radius,
        saturated=iso.max_ok_radius == cap,
        cross_checks=tuple(map(MembershipCross, sx.values, in_x, in_y)),
        graph_x=gx,
        graph_y=gy,
    )
