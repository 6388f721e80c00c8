"""Rotation-system embeddings and incremental genus-raising insertion.

A rotation system assigns every vertex a cyclic order of its darts and
determines an embedding in an orientable surface.  Faces are the orbits
of ``d -> sigma_next[twin(d)]``; with n vertices, m edges and f faces the
genus is ``(2 - (n - m + f)) / 2``.  Faces are only ever counted by
tracing these orbits; no face labels are kept.

:class:`EmbeddingState` maintains an embedding under one-edge insertions.
Inserting an edge whose two corners lie on a common face splits that face
(genus unchanged); corners on distinct faces merge them (genus rises by
one); the remaining cases attach a pendant dart or seed a loop on a bare
vertex.  :func:`build_embedding` turns a verified family of k disjoint
adjacent pairs into an explicit embedding of genus at least k: embed a
spanning tree avoiding the pair edges (one face), then add each pair with
a split followed by a forced merge, then place the leftover edges.

A corner is named by the dart it precedes: inserting at corner ``r``
splices the new dart immediately before ``r`` in the vertex rotation.

The corner rule.  Before each pair there is one face, so ``first_dart``
of every vertex is a corner on it, and the state keeps these first darts
in the order the face meets them (``corners``).  The pair's first edge,
from the witness w to a, goes in at x = ``first_dart[w]`` and y =
``first_dart[a]`` and splits the face into the arcs [y, x) and [x, y).
The second edge's far end b enters at z = ``first_dart[b]``; its witness
end enters at the corner beside the witness dart on the face without z,
merging the two faces back into one.  The positions of x, y and z in
``corners`` tell which arc holds z, and the merged face meets the three
arcs they cut in the reverse cyclic order, so one slice assignment keeps
the list.  A loop or a parallel pair needs no lookup.  The state also
tracks whether it is known to have one face (``one_face``), which pair
insertion keeps.  A leftover edge goes in at ``first_dart`` of both ends:
whether it splits or merges, the genus never drops, so the pairs' k stays
a lower bound.  :func:`build_embedding` takes the genus from one trace of
the final rotations.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

from .graph import (
    CertificationError,
    DisconnectedError,
    GraphError,
    MultiGraph,
    ParseError,
    bfs_tree,
    dart,
    format_dart,
    is_connected,
    parse_dart,
)
from .greedy import AdjacentPair, PairSet, _pair_edge_set


# ---------------------------------------------------------------------------
# Rotation systems and faces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationSystem:
    """Cyclic dart order per vertex.  Text form: ``v: e.end e.end ...``"""

    order: dict[int, tuple[int, ...]]

    def validate(self, g: MultiGraph) -> None:
        if set(self.order) != set(g.vertices()):
            raise GraphError("rotation vertex set does not match graph")
        for v, cyc in self.order.items():
            if sorted(cyc) != sorted(g.darts_at(v)):
                raise GraphError(f"rotation at vertex {v} is not a "
                                 "permutation of its darts")

    def to_text(self) -> str:
        lines = []
        for v in sorted(self.order):
            darts = " ".join(format_dart(d) for d in self.order[v])
            lines.append(f"{v}: {darts}".rstrip())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RotationSystem":
        """Parse the text form.  Vertex and edge ids are ASCII decimals.
        Raises :class:`ParseError` (with line number) on a syntax error;
        whether the rotation fits a graph is :meth:`validate`'s check."""
        order: dict[int, tuple[int, ...]] = {}
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, sep, tail = line.partition(":")
            head = head.strip()
            if not sep or not (head.isascii() and head.isdigit()):
                raise ParseError("expected 'vertex: darts'", no)
            v = int(head)
            if v in order:
                raise ParseError(f"vertex {v} repeated", no)
            try:
                order[v] = tuple(parse_dart(t) for t in tail.split())
            except ValueError as exc:
                raise ParseError(str(exc), no) from None
        if not order:
            raise ParseError("empty rotation text")
        return cls(order)


def _canonical_cycle(cyc: list[int]) -> tuple[int, ...]:
    if not cyc:
        return ()
    i = cyc.index(min(cyc))
    return tuple(cyc[i:] + cyc[:i])


@dataclass(frozen=True)
class FaceSet:
    """Face boundaries as canonicalized dart cycles, sorted."""

    faces: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.faces)

    def __iter__(self):
        return iter(self.faces)

    def sizes(self) -> list[int]:
        return sorted(len(f) for f in self.faces)


def _sigma_next(order: Mapping[int, Sequence[int]]) -> dict[int, int]:
    return {d: cyc[(i + 1) % len(cyc)]
            for cyc in order.values() for i, d in enumerate(cyc)}


def _face_count(sigma_next: Mapping[int, int]) -> int:
    """Orbit count of ``d -> sigma_next[twin(d)]``.  No validation."""
    seen: set[int] = set()
    count = 0
    for d in sigma_next:
        if d in seen:
            continue
        count += 1
        x = d
        while x not in seen:
            seen.add(x)
            x = sigma_next[x ^ 1]
    return count


def _face_set(order: Mapping[int, Sequence[int]]) -> FaceSet:
    """Orbits of ``d -> sigma_next[twin(d)]``.  No validation."""
    sigma_next = _sigma_next(order)
    faces = []
    seen: set[int] = set()
    for d in sigma_next:
        if d in seen:
            continue
        cyc = []
        x = d
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = sigma_next[x ^ 1]
        faces.append(_canonical_cycle(cyc))
    return FaceSet(tuple(sorted(faces)))


def _euler_genus(n: int, m: int, f: int) -> int:
    chi = n - m + f
    if chi > 2 or chi % 2:
        raise CertificationError(f"Euler characteristic {chi} is odd or > 2")
    return (2 - chi) // 2


def trace_faces(g: MultiGraph, rot: "RotationSystem | Mapping") -> FaceSet:
    """Face orbits of the embedding given by ``rot``."""
    if not isinstance(rot, RotationSystem):
        rot = RotationSystem({v: tuple(c) for v, c in rot.items()})
    rot.validate(g)
    return _face_set(rot.order)


def _check_connected(g: MultiGraph) -> None:
    if not is_connected(g):
        raise DisconnectedError("genus needs a connected graph")


def genus_of(
    g: MultiGraph, rot: "RotationSystem | Mapping", *, validate: bool = True
) -> int:
    """Genus of the surface in which ``rot`` embeds the connected graph g.

    ``validate=False`` skips the permutation and connectivity checks; use
    only on rotations built directly from g's own darts.
    """
    order = rot.order if isinstance(rot, RotationSystem) else rot
    if validate:
        _check_connected(g)
        RotationSystem({v: tuple(c) for v, c in order.items()}).validate(g)
    f = _face_count(_sigma_next(order)) if g.n_edges else 1
    return _euler_genus(g.n_vertices, g.n_edges, f)


def genus_and_faces(
    g: MultiGraph, rot: "RotationSystem | Mapping"
) -> tuple[int, FaceSet]:
    """:func:`genus_of` and :func:`trace_faces` from one validation and
    one trace."""
    _check_connected(g)
    faces = trace_faces(g, rot)
    f = len(faces) if g.n_edges else 1
    return _euler_genus(g.n_vertices, g.n_edges, f), faces


# ---------------------------------------------------------------------------
# Incremental embedding
# ---------------------------------------------------------------------------

class EmbeddingState:
    """Embedding of a growing subgraph on a fixed vertex set.

    ``sigma_next``/``sigma_prev`` give the vertex rotations.  Faces are
    counted by tracing; a dartless state counts one virtual face so Euler
    bookkeeping works from the start.  ``one_face`` is true while the
    state is known to have a single face: a trace sets it after
    construction, pair insertion keeps it, and single-edge insertion
    clears it.  While it holds, ``corners`` lists ``first_dart`` of every
    vertex with darts in the order the one face meets them, up to
    rotation.  Single-edge insertion and a splice that sets a new
    ``first_dart`` reset it to None, and the next pair retraces it.
    """

    __slots__ = (
        "n_vertices", "m_emb", "sigma_next", "sigma_prev", "first_dart",
        "vertex_of", "one_face", "corners",
    )

    def __init__(self, n_vertices: int):
        if n_vertices <= 0:
            raise GraphError("embedding needs at least one vertex")
        self.n_vertices = n_vertices
        self.m_emb = 0
        self.sigma_next: dict[int, int] = {}
        self.sigma_prev: dict[int, int] = {}
        self.first_dart: dict[int, int] = {}
        self.vertex_of: dict[int, int] = {}
        self.one_face = True
        self.corners: list[int] | None = []

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sigma(
        cls, n_vertices: int, order: Mapping[int, Sequence[int]],
        vertex_of: Mapping[int, int],
    ) -> "EmbeddingState":
        st = cls(n_vertices)
        for v, cyc in order.items():
            k = len(cyc)
            for i, d in enumerate(cyc):
                st.sigma_next[d] = cyc[(i + 1) % k]
                st.sigma_prev[cyc[(i + 1) % k]] = d
                st.vertex_of[d] = v
            if k:
                st.first_dart[v] = cyc[0]
        st.m_emb = len(st.sigma_next) // 2
        for d in st.sigma_next:
            if vertex_of[d] != st.vertex_of[d]:
                raise GraphError(f"dart {d} listed at the wrong vertex")
        st.corners = st._trace_corners()
        st.one_face = st.corners is not None
        return st

    @classmethod
    def tree_embedding(
        cls, g: MultiGraph, tree_edges: "set[int] | frozenset[int]"
    ) -> "EmbeddingState":
        """Single-face embedding of a spanning tree, sorted darts per
        vertex."""
        n = g.n_vertices
        if len(tree_edges) != n - 1:
            raise GraphError("spanning tree needs n-1 edges")
        adj: dict[int, list[int]] = {v: [] for v in g.vertices()}
        for eid in tree_edges:
            u, v = g.endpoints(eid)
            if u == v:
                raise GraphError("loop in spanning tree")
            adj[u].append(dart(eid, 0))
            adj[v].append(dart(eid, 1))
        order = {v: sorted(ds) for v, ds in adj.items()}
        vertex_of = {d: v for v, ds in order.items() for d in ds}
        st = cls.from_sigma(n, order, vertex_of)
        if not st.one_face:
            raise GraphError("tree edges do not span the graph")
        return st

    # -- queries -----------------------------------------------------------

    @property
    def n_faces(self) -> int:
        """Face count by one O(m) trace."""
        return _face_count(self.sigma_next) or 1

    @property
    def genus(self) -> int:
        """Genus by one O(m) trace; raises :class:`CertificationError` if
        the embedded subgraph does not span the vertices connectedly."""
        return _euler_genus(self.n_vertices, self.m_emb, self.n_faces)

    def _trace_corners(self) -> list[int] | None:
        """``first_dart`` of every vertex with darts, in the order one
        trace of the face through an arbitrary dart meets them; None if
        that face misses some dart.  O(m)."""
        sn = self.sigma_next
        corners: list[int] = []
        if not sn:
            return corners
        firsts = set(self.first_dart.values())
        start = d = next(iter(sn))
        steps = 0
        while True:
            if d in firsts:
                corners.append(d)
            steps += 1
            d = sn[d ^ 1]
            if d == start:
                return corners if steps == len(sn) else None

    def darts_around(self, v: int) -> Iterator[int]:
        """Darts at v in rotation order, from ``first_dart[v]``."""
        start = d = self.first_dart.get(v)
        while d is not None:
            yield d
            d = self.sigma_next[d]
            if d == start:
                return

    def rotation(self) -> RotationSystem:
        return RotationSystem({
            v: _canonical_cycle(list(self.darts_around(v)))
            for v in range(self.n_vertices)
        })

    def faces(self) -> FaceSet:
        """Face boundaries by one O(m) trace."""
        return _face_set(self.rotation().order)

    # -- insertion ---------------------------------------------------------

    def _splice(self, d: int, v: int, ref: int | None) -> None:
        self.vertex_of[d] = v
        if ref is None:
            self.sigma_next[d] = d
            self.sigma_prev[d] = d
            self.first_dart[v] = d
            self.corners = None
            return
        p = self.sigma_prev[ref]
        self.sigma_next[p] = d
        self.sigma_prev[d] = p
        self.sigma_next[d] = ref
        self.sigma_prev[ref] = d

    def _splice_edge(
        self, eid: int, u: int, v: int,
        corner_u: int | None, corner_v: int | None,
    ) -> None:
        """Splice edge ``eid``'s darts in before the given corners.  A bare
        end (corner None) gets a one-dart rotation; a loop on a bare vertex
        puts its second dart next to the first."""
        d0 = dart(eid, 0)
        self._splice(d0, u, corner_u)
        if corner_v is None and u == v:
            corner_v = d0
        self._splice(dart(eid, 1), v, corner_v)
        self.m_emb += 1

    def _merge_corners(self, x: int, y: int, z: int) -> bool:
        """Whether the first dart z lies on the arc [y, x) of the one face
        rather than on [x, y), read from the positions of the first darts
        x, y and z in ``corners``.

        Also updates ``corners`` for the pair that asks: x, y and z cut
        the face into three arcs, and the merged face meets them in the
        reverse cyclic order, which swapping the two arcs that do not wrap
        around the end of the list gives.
        """
        c = self.corners
        i, j, k = c.index(x), c.index(y), c.index(z)
        lo, mid, hi = sorted((i, j, k))
        c[lo:hi] = c[mid:hi] + c[lo:mid]
        return j < k < i or k < i < j or i < j < k

    def _check_corner(self, v: int, corner: int | None) -> None:
        if not 0 <= v < self.n_vertices:
            raise GraphError(f"vertex {v} out of range")
        if corner is None:
            if v in self.first_dart:
                raise GraphError(f"vertex {v} has darts, corner required")
            return
        if self.vertex_of.get(corner) != v:
            raise GraphError(f"corner dart {corner} is not at vertex {v}")

    def insert_edge(
        self, eid: int, u: int, v: int,
        corner_u: int | None, corner_v: int | None, *, check: bool = False,
    ) -> None:
        """Insert edge ``eid`` with dart 2*eid at u and 2*eid+1 at v.

        The edge splits a face if its corners lie on one face and merges
        two otherwise; a bare endpoint (corner None) gets a one-dart
        rotation.  Clears ``one_face`` and ``corners``.  The caller must
        pass u, v in the edge's stored endpoint order so dart encoding
        stays aligned with the graph.
        """
        if dart(eid, 0) in self.vertex_of:
            raise GraphError(f"edge {eid} already embedded")
        self._check_corner(u, corner_u)
        self._check_corner(v, corner_v)
        if corner_u is None and corner_v is None and u != v:
            raise GraphError("cannot join two bare vertices: embedded "
                             "subgraph must stay connected")
        self._splice_edge(eid, u, v, corner_u, corner_v)
        self.one_face = False
        self.corners = None
        if check:
            self._audit_edges((eid,))

    def insert_adjacent_pair(
        self, g: MultiGraph, pair: AdjacentPair, *, check: bool = False
    ) -> None:
        """Insert both edges of an adjacent pair, raising the genus by one.

        Requires a single current face, so every dart is a corner on it;
        unless ``corners`` is kept, one trace checks that and rebuilds it.
        The first edge goes in at ``first_dart`` of its ends, x at the
        witness w and y at its far end a, and splits the face: its witness
        dart ``d_w`` is then flanked by a corner on each new face, before
        ``d_w`` on the face of the arc [y, x) and before ``after =
        sigma_next[d_w]`` on the face of [x, y).  The second edge's far
        end b takes z = ``first_dart[b]``, and its witness end enters at
        the flanking corner on the other face, merging the two back into
        one.  In general :meth:`_merge_corners` tells which face holds z;
        the rest is O(1).  A loop as second edge goes in at both flanking
        corners.  If the first edge is a loop, its far end's face is the
        one-dart face {``after``}, and if b = a, z = y lies on [y, x);
        either way the witness end goes before ``after``.  Raises
        :class:`CertificationError` if an end of the pair carries no dart
        (then the first edge cannot split the face).
        """
        if self.corners is None:
            self.corners = self._trace_corners()
            if self.corners is None:
                raise GraphError("pair insertion needs a single face")
            self.one_face = True
        w = pair.witness
        eu, ev = g.endpoints(pair.e)
        fu, fv = g.endpoints(pair.f)
        if w not in (eu, ev):
            raise GraphError("witness is not an endpoint of the first edge")
        if w not in (fu, fv):
            raise GraphError("witness is not an endpoint of the second edge")
        for eid in pair.edges():
            if dart(eid, 0) in self.vertex_of:
                raise GraphError(f"edge {eid} already embedded")
        # only two loops on the vertex of a dartless state may start bare
        bare = {y for y in (eu, ev, fu, fv) if y not in self.first_dart}
        if bare and (self.first_dart or len(bare) > 1):
            raise CertificationError(
                f"pair ({pair.e}, {pair.f}) at {w} has an end without "
                "darts, so it cannot split and merge the one face")
        self._splice_edge(pair.e, eu, ev, self.first_dart.get(eu),
                          self.first_dart.get(ev))
        d_w = dart(pair.e, 0 if eu == w else 1)
        after = self.sigma_next[d_w]
        a = ev if eu == w else eu
        b = fv if fu == w else fu
        if b == w:
            ref_w, ref_b = d_w, after
        else:
            ref_b = self.first_dart[b]
            # after is x = first_dart[w] unless the first edge is a loop
            on_d_w_face = a in (w, b) or self._merge_corners(
                after, self.first_dart[a], ref_b)
            ref_w = after if on_d_w_face else d_w
        corners = (ref_w, ref_b) if fu == w else (ref_b, ref_w)
        self._splice_edge(pair.f, fu, fv, *corners)
        if check:
            self._audit_edges(pair.edges())

    # -- auditing ----------------------------------------------------------

    def _audit(self) -> None:
        """Check every invariant from scratch.  Raises
        :class:`CertificationError`, also under ``python -O``."""
        self._audit_darts(self.sigma_next)
        n_faces = self.n_faces
        _require(not self.one_face or n_faces == 1,
                 f"one face expected, the trace finds {n_faces}")
        if self.corners is not None:
            traced = self._trace_corners()
            _require(traced is not None and _canonical_cycle(traced)
                     == _canonical_cycle(self.corners),
                     "corner list is not the face order of the first darts")
        # Euler parity only makes sense once every vertex carries a dart
        if len(self.first_dart) == self.n_vertices:
            chi = self.n_vertices - self.m_emb + n_faces
            _require(chi % 2 == 0, f"odd Euler characteristic {chi}")

    def _audit_edges(self, eids) -> None:
        """Check the links that splicing in ``eids`` can have changed: at
        their darts and the darts before and after them in rotation.  O(1)
        per edge."""
        sp, sn = self.sigma_prev, self.sigma_next
        near = set()
        for eid in eids:
            for d in (dart(eid, 0), dart(eid, 1)):
                near.update((d, sp.get(d), sn.get(d)))
        near.discard(None)
        self._audit_darts(near)

    def _audit_darts(self, darts) -> None:
        """Check the rotation links leaving each of ``darts``."""
        for d in darts:
            nxt = self.sigma_next.get(d)
            _require(self.sigma_prev.get(nxt) == d,
                     f"sigma_prev of dart {nxt}")
            _require(self.vertex_of.get(nxt) == self.vertex_of.get(d),
                     f"rotation of dart {d} leaves its vertex")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CertificationError(f"embedding check failed: {what}")


# ---------------------------------------------------------------------------
# Building a certified embedding from a pair family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingResult:
    rotation: RotationSystem
    genus: int
    n_vertices: int
    n_edges: int
    n_faces: int
    pairs_used: int


def build_embedding(
    g: MultiGraph, pairs: PairSet | Sequence[AdjacentPair], *,
    check: bool = False,
) -> EmbeddingResult:
    """Embedding of g with genus at least ``len(pairs)``.

    Verifies the pair family as :func:`verify_pair_set` does, with the
    BFS that checks connectivity also giving the spanning tree that avoids
    the pair edges; a failure raises :class:`GraphError` with the same
    reason.  Then embeds the tree, applies the pairs in order (each raises
    the genus by exactly one), and inserts each leftover edge at
    ``first_dart`` of its ends; a leftover edge splits or merges faces,
    so it never lowers the genus.  The genus comes from one trace of the
    final rotations.
    Raises :class:`CertificationError` if an edge is missing, the traced
    Euler characteristic is odd or above 2, or the genus ends below the
    pair count.  ``check=True`` audits the darts each insertion touches,
    then the whole state once, and compares the genus with
    :func:`genus_of`; that keeps the check O(m).
    """
    if not isinstance(pairs, PairSet):
        pairs = PairSet(list(pairs))
    pair_edges, reason = _pair_edge_set(g, pairs)
    tree = None
    if reason is None:
        try:
            tree = bfs_tree(g, pair_edges)
        except DisconnectedError:
            reason = "disconnected"
    if tree is None:
        raise GraphError(f"pair family fails verification: {reason}")
    st = EmbeddingState.tree_embedding(g, tree)
    for pair in pairs:
        st.insert_adjacent_pair(g, pair, check=check)
    for eid in g.edge_ids():
        if eid not in tree and eid not in pair_edges:
            u, v = g.endpoints(eid)
            st.insert_edge(eid, u, v, st.first_dart.get(u),
                           st.first_dart.get(v), check=check)
    if st.m_emb != g.n_edges:
        raise CertificationError(f"embedded {st.m_emb} of {g.n_edges} edges")
    n_faces = _face_count(st.sigma_next) if g.n_edges else 1
    genus = _euler_genus(g.n_vertices, g.n_edges, n_faces)
    k = len(pairs.pairs)
    if genus < k:
        raise CertificationError(
            f"embedding genus {genus} is below the {k} certified pairs")
    rot = st.rotation()
    if check:
        st._audit()
        _require(genus_of(g, rot) == genus, "genus of the emitted rotation")
    return EmbeddingResult(
        rotation=rot,
        genus=genus,
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        n_faces=n_faces,
        pairs_used=k,
    )
