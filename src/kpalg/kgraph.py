"""Finite k-graph presentations: colored edges plus commuting squares.

A presentation consists of k colors (1-based), a vertex set, colored edges,
and for each pair of composable edges of ascending colors a square relation
``e f ~ f' e'`` identifying the two factorizations of a path of mixed degree.
Paths are stored in canonical form: the edge word is sorted by nondecreasing
color, using the square relations to transpose adjacent edges.

Composition is written operator-style: ``p q`` requires s(p) = r(q), the
range of the composite is r(p) and the source is s(q).
"""

from __future__ import annotations

import operator
import re
from dataclasses import FrozenInstanceError, dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .degrees import Degree, below, join, leq, sub, total, zero


class KGraphError(Exception):
    pass


class ParseError(KGraphError):
    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Edge:
    """A colored edge. ``source`` is s(e), ``range`` is r(e)."""

    id: str
    color: int
    source: str
    range: str


class Path:
    """A path in canonical (color-nondecreasing) form.

    ``edges`` is a tuple of edge ids; the trivial path at a vertex has an
    empty word and carries the vertex in ``range``. Two paths are equal
    when they have the same graph object, range and word. ``trivial_path``
    hands out one trivial path per vertex and graph. Paths are immutable:
    assigning an attribute raises ``FrozenInstanceError``. ``split`` is
    the kernel's own: a composite made by ``KGraph.compose`` keeps its last
    factorization there (see ``_memo``), every other path None.
    """

    __slots__ = ("graph", "range", "edges", "degree", "source", "split", "__weakref__")

    def __init__(
        self,
        graph: "KGraph",
        range: str,
        edges: Tuple[str, ...],
        # computed from the word unless the caller already knows them
        degree: Degree = None,
        source: str = None,
    ):
        _set_graph(self, graph)
        _set_range(self, range)
        _set_edges(self, edges)
        _set_degree(self, degree)
        _set_source(self, source)
        _set_split(self, None)
        self.__post_init__()

    def __post_init__(self):
        if self.degree is not None:
            return
        g = self.graph
        if self.edges:
            d = list(zero(g.k))
            color = g._color
            for eid in self.edges:
                d[color[eid] - 1] += 1
            _set_degree(self, tuple(d))
            _set_source(self, g._source[self.edges[-1]])
        else:
            _set_degree(self, zero(g.k))
            _set_source(self, self.range)

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Path):
            return NotImplemented
        same = self.edges == other.edges and self.range == other.range
        return same and self.graph is other.graph

    def __ne__(self, other):
        if self is other:
            return False
        if not isinstance(other, Path):
            return NotImplemented
        same = self.edges == other.edges and self.range == other.range
        return not (same and self.graph is other.graph)

    def __hash__(self):
        return hash((self.range, self.edges))

    @property
    def is_trivial(self) -> bool:
        return not self.edges

    def __str__(self) -> str:
        return self.range if not self.edges else ".".join(self.edges)

    def __repr__(self) -> str:
        return "Path(%s)" % self


# the kernel's writers of the slots, which ``__setattr__`` refuses
_set_graph = Path.graph.__set__
_set_range = Path.range.__set__
_set_edges = Path.edges.__set__
_set_degree = Path.degree.__set__
_set_source = Path.source.__set__
_set_split = Path.split.__set__


def not_composable(p: Path, q: Path) -> KGraphError:
    """The refusal of p q when s(p) != r(q)."""
    return KGraphError(
        "paths are not composable: s(%s)=%s but r(%s)=%s" % (p, p.source, q, q.range)
    )


def path_sort_key(p: Path):
    """Deterministic ordering: shorter first, then by degree, then word."""
    return (total(p.degree), p.degree, p.edges)


# The compose memo, one for the process: the tuple (graph, right factor q,
# composites) of the last ``compose``.
#
# It serves a checker that composes many paths with one separator q in a
# row and meets the same paths again, such as the benchmark's audit of a
# separator, which gets every hit on the benchmark workloads; kpalg's own
# callers (``kp_mul``, ``normal_form``, the closed machine) got none there,
# and the separator search composes nothing. ``composites`` maps the word
# ``p.edges`` of each left path to p q, for the graph and q of the memo,
# both checked by identity. Each composite keeps its last ``factorize`` in
# its own ``split`` slot, as ``(m, (head, tail))``, the shortcut splits at
# m = 0 and m = d(p q) included; ``factorize`` reads the slot only when
# the composite is a path of the graph it is called on. A hit returns only
# what was validated when it was stored.
#
# A ``compose`` with another graph or right factor replaces the whole
# tuple, so at most one right factor's composites are kept by the memo,
# and a split goes with its composite (a shortcut split holds the
# composite itself, so the cycle collector frees the two). Each call reads
# the tuple once, so a thread never mixes up two right factors, and each
# composite belongs to one right factor. The memo is one for the process,
# not one per graph: reports keep their graphs alive, and a memo per graph
# would keep each graph's last composites with it (``peak_rss_mb`` +7.7%
# on the ``sweep`` benchmark workload and +3.1% on ``lattice``).
_memo = (None, None, {})
# the split slot of a composite not yet split; other paths hold None
_UNSPLIT = (None, None)


_ID = r"[A-Za-z0-9_]+"
_ID_RE = re.compile(r"^%s$" % _ID)
_EDGE_RE = re.compile(
    r"^edge\s+(%s)\s+color=(\d+)\s+from=(%s)\s+to=(%s)$" % (_ID, _ID, _ID)
)
_SQUARE_RE = re.compile(
    r"^square\s+(%s)\s+(%s)\s*~\s*(%s)\s+(%s)$" % (_ID, _ID, _ID, _ID)
)


class KGraph:
    """A finite k-graph presentation.

    Treated as immutable after construction; the paths of each exact degree
    at each vertex are cached on the instance once ``paths`` has listed them,
    each trivial path once ``trivial_path`` has built it, each vertex's
    ``paths.reachable_to`` answer once asked for, the paths up to each
    depth the aperiodicity search has listed by source, the ``validate``
    report, and the quotient by each ideal ``ideals.quotient`` has built.
    """

    def __init__(
        self,
        k: int,
        vertices: Iterable[str],
        edges: Iterable[Edge],
        squares: Iterable[Tuple[str, str, str, str]] = (),
    ):
        if k < 1:
            raise KGraphError("k must be >= 1, got %d" % k)
        self.k = k
        vs = list(vertices)
        seen = set()
        for v in vs:
            if not _ID_RE.match(v):
                raise KGraphError("bad vertex id %r" % v)
            if v in seen:
                raise KGraphError("duplicate vertex id %r" % v)
            seen.add(v)
        self.vertices: Tuple[str, ...] = tuple(sorted(seen))
        self._vertex_set = frozenset(seen)

        self.edges: Dict[str, Edge] = {}
        for e in edges:
            if not _ID_RE.match(e.id):
                raise KGraphError("bad edge id %r" % e.id)
            if e.id in seen or e.id in self.edges:
                raise KGraphError("duplicate id %r" % e.id)
            if not 1 <= e.color <= k:
                raise KGraphError(
                    "edge %r has color %d, expected 1..%d" % (e.id, e.color, k)
                )
            self.edges[e.id] = e
        # the color and source of each edge id, read by the word kernel
        self._color: Dict[str, int] = {eid: e.color for eid, e in self.edges.items()}
        self._source: Dict[str, str] = {eid: e.source for eid, e in self.edges.items()}

        # square e f ~ f' e'  encodes  ef = f'e'  with color(e) < color(f)
        self.square_fwd: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self.square_rev: Dict[Tuple[str, str], Tuple[str, str]] = {}
        for e, f, fp, ep in squares:
            for eid in (e, f, fp, ep):
                if eid not in self.edges:
                    raise KGraphError("square references unknown edge %r" % eid)
            ce, cf = self.edges[e].color, self.edges[f].color
            cfp, cep = self.edges[fp].color, self.edges[ep].color
            if not (ce < cf and cfp == cf and cep == ce):
                raise KGraphError(
                    "square %s %s ~ %s %s must pair colors i<j with j i"
                    % (e, f, fp, ep)
                )
            if (e, f) in self.square_fwd:
                raise KGraphError("duplicate square for pair (%s, %s)" % (e, f))
            self.square_fwd[(e, f)] = (fp, ep)
            self.square_rev[(fp, ep)] = (e, f)

        by_r: Dict[Tuple[str, int], List[str]] = {}
        by_s: Dict[str, List[str]] = {}
        for eid in sorted(self.edges):
            e = self.edges[eid]
            by_r.setdefault((e.range, e.color), []).append(eid)
            by_s.setdefault(e.source, []).append(eid)
        self._by_range: Dict[Tuple[str, int], Tuple[str, ...]] = {
            key: tuple(ids) for key, ids in by_r.items()
        }
        # the vertices that receive an edge, of any color
        self._receivers = frozenset(e.range for e in self.edges.values())
        # out-edge ids of each vertex, every color
        self._by_source: Dict[str, Tuple[str, ...]] = {
            v: tuple(ids) for v, ids in by_s.items()
        }
        # colors every vertex receives: no boundary path has slack in them
        self._immortal: Tuple[bool, ...] = tuple(
            all((w, c) in by_r for w in self.vertices) for c in range(1, k + 1)
        )
        self._paths_cache: Dict[Tuple[str, Degree], Tuple[Path, ...]] = {}
        self._trivial: Dict[str, Path] = {}
        self._reach: Dict[str, Dict[str, Path]] = {}
        self._groups: Dict[int, Dict[str, List[List[Path]]]] = {}
        self._validation: Optional[ValidationReport] = None
        self._quotients: Dict[FrozenSet[str], KGraph] = {}

    def __repr__(self) -> str:
        return "<KGraph k=%d |V|=%d |E|=%d>" % (
            self.k,
            len(self.vertices),
            len(self.edges),
        )

    # -- basic accessors -------------------------------------------------

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_set

    def edges_by_range(self, v: str, color: Optional[int] = None) -> Tuple[Edge, ...]:
        """Edges e with r(e) = v, i.e. the set vLambda^{e_color}."""
        if color is not None:
            ids = self._by_range.get((v, color), ())
            return tuple(self.edges[i] for i in ids)
        out: List[Edge] = []
        for c in range(1, self.k + 1):
            out.extend(self.edges[i] for i in self._by_range.get((v, c), ()))
        return tuple(out)

    def receives(self, v: str, color: Optional[int] = None) -> bool:
        """Whether some edge has range v (of the given color), read off the
        indexes built with the graph, without listing the edges."""
        if color is not None:
            return (v, color) in self._by_range
        return v in self._receivers

    # -- words and canonical form ----------------------------------------

    def _swap(self, squares: Dict, a: str, b: str) -> Tuple[str, str]:
        # transpose the adjacent edges (a, b) through the given square map:
        # square_rev puts descending colors in ascending order, square_fwd
        # the other way round
        try:
            return squares[(a, b)]
        except KeyError:
            raise KGraphError(
                "no square relation rewrites (%s, %s); presentation is incomplete"
                % (a, b)
            )

    def _sort_word(self, word: List[str], start: int) -> List[str]:
        # insertion sort by color of word[start:] into word[:start], which
        # is already canonical; adjacent transpositions use the squares
        color, sq = self._color, self.square_rev
        for i in range(start, len(word)):
            c = color[word[i]]
            j = i
            while j > 0 and color[word[j - 1]] > c:
                a, b = word[j - 1], word[j]
                word[j - 1], word[j] = sq.get((a, b)) or self._swap(sq, a, b)
                j -= 1
        return word

    def composite_word(self, p: Path, word: Tuple[str, ...]) -> Tuple[str, ...]:
        """The canonical edge word of p q, where q is the path with range
        s(p) and canonical word ``word`` (the caller checks the range); no
        path is built. Words already in color order are joined as they are."""
        edges = p.edges
        if not edges:
            return word
        if not word or self._color[edges[-1]] <= self._color[word[0]]:
            return edges + word
        return tuple(self._sort_word(list(edges + word), len(edges)))

    def trivial_path(self, v: str) -> Path:
        p = self._trivial.get(v)
        if p is None:
            if not self.has_vertex(v):
                raise KGraphError("unknown vertex %r" % v)
            p = self._trivial[v] = Path(self, v, (), zero(self.k), v)
        return p

    def path_from_edges(self, edge_ids: Sequence[str]) -> Path:
        """Build a path from a composable edge word, canonicalizing it."""
        if not edge_ids:
            raise KGraphError("empty edge word; use trivial_path for vertices")
        for eid in edge_ids:
            if eid not in self.edges:
                raise KGraphError("unknown edge %r" % eid)
        for a, b in zip(edge_ids, edge_ids[1:]):
            if self.edges[a].source != self.edges[b].range:
                raise KGraphError(
                    "edges %s and %s are not composable (s(%s)=%s, r(%s)=%s)"
                    % (a, b, a, self.edges[a].source, b, self.edges[b].range)
                )
        rng = self.edges[edge_ids[0]].range
        word = self._sort_word(list(edge_ids), 1)
        return Path(self, rng, tuple(word))

    def compose(self, p: Path, q: Path) -> Path:
        """The composite p q, memoized for the last right factor q (see
        ``_memo``)."""
        global _memo
        graph, right, composites = _memo
        same = q is right and self is graph
        if same:
            pq = composites.get(p.edges)
            if pq is not None:
                return pq
        if p.source != q.range:
            raise not_composable(p, q)
        if not p.edges:
            return q
        if not q.edges:
            return p
        if not same:
            # a new right factor: forget the old one's composites
            composites = {}
            _memo = (self, q, composites)
        word = self.composite_word(p, q.edges)
        degree = tuple(map(operator.add, p.degree, q.degree))
        pq = composites[p.edges] = Path(self, p.range, word, degree, q.source)
        _set_split(pq, _UNSPLIT)
        return pq

    def factorize(self, p: Path, m: Degree) -> Tuple[Path, Path]:
        """Split p = head tail with d(head) = m. Unique by the square rules.

        A composite of ``compose`` keeps its last split (see ``_memo``)."""
        last = p.split
        if last is not None and last[0] == m and p.graph is self:
            return last[1]
        m = self._degree(m)
        d = p.degree
        if any(map(operator.gt, m, d)):
            raise KGraphError(
                "cannot factorize %s at degree %r (path degree %r)" % (p, m, d)
            )
        if m == d:
            out = p, self.trivial_path(p.source)
        elif not any(m):
            out = self.trivial_path(p.range), p
        else:
            out = self._split(p, m)
        if last is not None and p.graph is self:
            _set_split(p, (m, out))
        return out

    def prefix_word(self, word: Tuple[str, ...], d: Degree, m: Degree) -> Tuple[str, ...]:
        """The edge word of the head at m of the path with canonical word
        ``word`` and degree d, for a degree m <= d (the caller checks it);
        no path is built."""
        if m == d:
            return word
        if not any(m):
            return ()
        out, h = self._split_word(word, d, m)
        return tuple(out[:h])

    def _split(self, p: Path, m: Degree) -> Tuple[Path, Path]:
        d = p.degree
        word, h = self._split_word(p.edges, d, m)
        split = self.edges[word[h]].range
        return (
            Path(self, p.range, tuple(word[:h]), m, split),
            Path(self, split, tuple(word[h:]), tuple(map(operator.sub, d, m)), p.source),
        )

    def _split_word(
        self, word: Tuple[str, ...], d: Degree, m: Degree
    ) -> Tuple[Sequence[str], int]:
        # the canonical word of degree d reordered so that its first h edges
        # are the head at m: word[:h] is the head so far, word[h:] the
        # canonical rest; before color c joins the head, the rest starts
        # with the `skip` left-over edges of colors below c, so its next
        # color-c edge sits after them. While m takes whole blocks of the
        # lower colors nothing moves, and the word itself is returned
        out: Sequence[str] = word
        sq = self.square_fwd
        h = 0
        skip = 0
        for c in range(self.k):
            mc = m[c]
            if not (mc and skip):
                h += mc
            else:
                if out is word:
                    out = list(word)
                for _ in range(mc):
                    # bubble the color-c edge down to the head boundary;
                    # the square map returns the transposed pair directly
                    for pos in range(h + skip, h, -1):
                        a, b = out[pos - 1], out[pos]
                        out[pos - 1], out[pos] = sq.get((a, b)) or self._swap(sq, a, b)
                    h += 1
            skip += d[c] - mc
        return out, h

    # -- path enumeration -------------------------------------------------

    def _degree(self, n: Degree) -> Degree:
        # n as a tuple, refused unless it has rank k and no negative
        # component: no path has such a degree
        if len(n) != self.k:
            raise KGraphError("degree %r has wrong rank" % (n,))
        n = tuple(n)
        if min(n) < 0:
            raise KGraphError("degree %r has a negative component" % (n,))
        return n

    def paths(self, v: str, n: Degree) -> Tuple[Path, ...]:
        """All paths of degree exactly n with range v, in canonical form."""
        if not self.has_vertex(v):
            raise KGraphError("unknown vertex %r" % v)
        n = self._degree(n)
        cached = self._paths_cache.get((v, n))
        if cached is None:
            cached = self._paths_cache[(v, n)] = tuple(
                Path(self, v, word, n, src) for word, src in self._iter_words(v, n)
            )
        return cached

    def boundary_paths(self, v: str, n: Degree) -> Tuple[Path, ...]:
        """Paths of degree <= n from v that cannot extend in any slack color.

        A path counts when for every color i with d(p)_i < n_i its source
        receives no color-i edge. The tuple is in ``path_sort_key`` order,
        as ``iter_boundary_paths`` yields it.
        """
        return tuple(self.iter_boundary_paths(v, n))

    def iter_boundary_paths(self, v: str, n: Degree) -> Iterator[Path]:
        """``boundary_paths(v, n)`` lazily, in ``path_sort_key`` order.

        Degrees are visited by (total, degree); a degree is skipped when
        some slack color is received by every vertex, since no path of it
        can be a boundary path. Within a degree the words come from
        ``_iter_words`` in sorted order, and only boundary paths are built,
        so nothing of the box is kept or cached.
        """
        if not self.has_vertex(v):
            raise KGraphError("unknown vertex %r" % v)
        n = self._degree(n)
        by_range = self._by_range
        for m in sorted(below(n), key=lambda m: (total(m), m)):
            slack = [c for c in range(1, self.k + 1) if m[c - 1] < n[c - 1]]
            if any(self._immortal[c - 1] for c in slack):
                continue
            for word, src in self._iter_words(v, m):
                if not slack or not any((src, c) in by_range for c in slack):
                    yield Path(self, v, word, m, src)

    def _iter_words(self, v: str, m: Degree) -> Iterator[Tuple[Tuple[str, ...], str]]:
        """The canonical words of degree m with range v, each with its source.

        The one walk over canonical words: colors in nondecreasing order,
        edges depth first in sorted-id order, so the words come out sorted.
        One mutable word is filled in place, with one edge iterator per
        position; a tuple is built only for a whole word.
        """
        colors = [c for c in range(1, self.k + 1) for _ in range(m[c - 1])]
        if not colors:
            yield (), v
            return
        by_range, source = self._by_range, self._source
        last = len(colors) - 1
        word = [""] * len(colors)
        # walks[i] runs over the edges at position i, into the source of
        # word[:i]; positions 0..i are live
        walks = [iter(by_range.get((v, colors[0]), ()))] * len(colors)
        i = 0
        while i >= 0:
            for eid in walks[i]:
                word[i] = eid
                if i == last:
                    yield tuple(word), source[eid]
                else:
                    i += 1
                    walks[i] = iter(by_range.get((source[eid], colors[i]), ()))
                    break
            else:
                i -= 1

    # -- common extensions -------------------------------------------------

    def mce(self, mu: Path, nu: Path) -> Tuple[Path, ...]:
        """Minimal common extensions: paths of degree d(mu) v d(nu) extending both."""
        if mu.range != nu.range:
            return ()
        if leq(mu.degree, nu.degree):
            head, _ = self.factorize(nu, mu.degree)
            return (nu,) if head == mu else ()
        if leq(nu.degree, mu.degree):
            head, _ = self.factorize(mu, nu.degree)
            return (mu,) if head == nu else ()
        m = join(mu.degree, nu.degree)
        out: List[Path] = []
        for alpha in self.paths(mu.source, sub(m, mu.degree)):
            lam = self.compose(mu, alpha)
            head, _ = self.factorize(lam, nu.degree)
            if head == nu:
                out.append(lam)
        return tuple(out)


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    items: Tuple[str, ...]
    message: str

    def __str__(self) -> str:
        return "%s: %s" % (self.kind, self.message)


@dataclass
class ValidationReport:
    violations: List[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def validate(g: KGraph) -> ValidationReport:
    """Check a presentation: endpoints, square axioms, hexagons, local convexity.
    The report is kept on the graph; callers must not change it."""
    if g._validation is not None:
        return g._validation
    out: List[Violation] = []
    vset = set(g.vertices)

    for eid in sorted(g.edges):
        e = g.edges[eid]
        for v in (e.source, e.range):
            if v not in vset:
                out.append(
                    Violation(
                        "dangling-edge",
                        (eid, v),
                        "edge %s references undeclared vertex %s" % (eid, v),
                    )
                )

    # squares: well-formed, endpoint-compatible, injective
    hit = {}
    for (e, f), (fp, ep) in sorted(g.square_fwd.items()):
        E, F, FP, EP = g.edges[e], g.edges[f], g.edges[fp], g.edges[ep]
        if E.source != F.range:
            out.append(
                Violation(
                    "non-bijective-square",
                    (e, f),
                    "square (%s, %s): left side is not composable" % (e, f),
                )
            )
            continue
        bad = (
            FP.range != E.range
            or EP.source != F.source
            or FP.source != EP.range
        )
        if bad:
            out.append(
                Violation(
                    "non-bijective-square",
                    (e, f, fp, ep),
                    "square %s %s ~ %s %s: endpoint mismatch" % (e, f, fp, ep),
                )
            )
            continue
        if (fp, ep) in hit:
            out.append(
                Violation(
                    "non-bijective-square",
                    (fp, ep),
                    "pairs (%s, %s) and (%s, %s) map to the same factorization"
                    % (hit[(fp, ep)] + (e, f)),
                )
            )
        hit[(fp, ep)] = (e, f)

    # totality over composable ascending pairs, surjectivity onto descending
    for i in range(1, g.k + 1):
        for j in range(i + 1, g.k + 1):
            for eid in sorted(g.edges):
                e = g.edges[eid]
                if e.color != i:
                    continue
                for f in g.edges_by_range(e.source, j):
                    if (eid, f.id) not in g.square_fwd:
                        out.append(
                            Violation(
                                "missing-square",
                                (eid, f.id),
                                "no square for composable pair (%s, %s)"
                                % (eid, f.id),
                            )
                        )
            for fid in sorted(g.edges):
                f = g.edges[fid]
                if f.color != j:
                    continue
                for e in g.edges_by_range(f.source, i):
                    if (fid, e.id) not in g.square_rev:
                        out.append(
                            Violation(
                                "non-bijective-square",
                                (fid, e.id),
                                "descending pair (%s, %s) is not the image of any square"
                                % (fid, e.id),
                            )
                        )

    # hexagon: for color triples i<j<l both transposition routes must agree
    def swap_at(word, pos):
        a, b = word[pos], word[pos + 1]
        key = (a, b)
        if key not in g.square_fwd:
            return None
        fp, ep = g.square_fwd[key]
        w = list(word)
        w[pos], w[pos + 1] = fp, ep
        return w

    def run_route(word, route):
        w = list(word)
        for pos in route:
            w = swap_at(w, pos)
            if w is None:
                return None
        return w

    for eid in sorted(g.edges):
        e = g.edges[eid]
        for f in g.edges_by_range(e.source, None):
            if f.color <= e.color:
                continue
            for h in g.edges_by_range(f.source, None):
                if h.color <= f.color:
                    continue
                start = [eid, f.id, h.id]
                wa = run_route(start, (0, 1, 0))
                wb = run_route(start, (1, 0, 1))
                if wa is None or wb is None:
                    continue  # missing squares already reported
                if wa != wb:
                    out.append(
                        Violation(
                            "hexagon-failure",
                            tuple(start),
                            "triple (%s, %s, %s): routes give %s vs %s"
                            % (eid, f.id, h.id, ".".join(wa), ".".join(wb)),
                        )
                    )

    # local convexity: an edge may not see a color its source cannot continue
    for eid in sorted(g.edges):
        e = g.edges[eid]
        for j in range(1, g.k + 1):
            if j == e.color:
                continue
            if g._by_range.get((e.range, j)) and not g._by_range.get(
                (e.source, j)
            ):
                out.append(
                    Violation(
                        "not-locally-convex",
                        (eid, str(j)),
                        "edge %s: range continues in color %d but source cannot"
                        % (eid, j),
                    )
                )

    g._validation = ValidationReport(out)
    return g._validation


# -- file format ------------------------------------------------------------


def parse_kgraph(text: str) -> KGraph:
    """Parse the ``kgraph v1`` text format.

    Header line ``kgraph v1``, then ``k: N``, ``vertices:`` lines (which
    accumulate), ``edge id color=c from=src to=rng`` (from = source,
    to = range) and ``square e f ~ f' e'`` lines. ``#`` starts a comment.
    """
    k: Optional[int] = None
    vertices: List[str] = []
    edges: List[Edge] = []
    squares: List[Tuple[str, str, str, str]] = []
    saw_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_header:
            if line != "kgraph v1":
                raise ParseError("expected header 'kgraph v1', got %r" % line, lineno)
            saw_header = True
            continue
        if line.startswith("k:"):
            if k is not None:
                raise ParseError("duplicate k: line", lineno)
            try:
                k = int(line[2:].strip())
            except ValueError:
                raise ParseError("bad k: line %r" % line, lineno)
            if k < 1:
                raise ParseError("k must be >= 1", lineno)
            continue
        if line.startswith("vertices:"):
            for v in line[len("vertices:"):].split():
                if not _ID_RE.match(v):
                    raise ParseError("bad vertex id %r" % v, lineno)
                vertices.append(v)
            continue
        if line.startswith("edge"):
            if k is None:
                raise ParseError("edge line before k: line", lineno)
            m = _EDGE_RE.match(line)
            if not m:
                raise ParseError("bad edge line %r" % line, lineno)
            eid, color, src, rng = m.groups()
            color_i = int(color)
            if not 1 <= color_i <= k:
                raise ParseError(
                    "edge %s has color %d, expected 1..%d" % (eid, color_i, k),
                    lineno,
                )
            edges.append(Edge(eid, color_i, src, rng))
            continue
        if line.startswith("square"):
            m = _SQUARE_RE.match(line)
            if not m:
                raise ParseError("bad square line %r" % line, lineno)
            squares.append(m.groups())
            continue
        raise ParseError("unrecognized line %r" % line, lineno)

    if not saw_header:
        raise ParseError("empty input, expected 'kgraph v1' header")
    if k is None:
        raise ParseError("missing k: line")
    try:
        return KGraph(k, vertices, edges, squares)
    except KGraphError as exc:
        raise ParseError(str(exc))


def format_kgraph(g: KGraph) -> str:
    lines = ["kgraph v1", "k: %d" % g.k]
    if g.vertices:
        lines.append("vertices: %s" % " ".join(g.vertices))
    for eid in sorted(g.edges):
        e = g.edges[eid]
        lines.append(
            "edge %s color=%d from=%s to=%s" % (e.id, e.color, e.source, e.range)
        )
    for (e, f) in sorted(g.square_fwd):
        fp, ep = g.square_fwd[(e, f)]
        lines.append("square %s %s ~ %s %s" % (e, f, fp, ep))
    return "\n".join(lines) + "\n"


def load_kgraph(path: str) -> KGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kgraph(fh.read())
