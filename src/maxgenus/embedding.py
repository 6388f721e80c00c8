"""Rotation-system embeddings and the certified embedding of a pair family.

A rotation system assigns every vertex a cyclic order of its darts and
determines an embedding in an orientable surface.  Faces are the orbits
of ``d -> sigma_next[d ^ 1]``; with n vertices, m edges and f faces the
genus is ``(2 - (n - m + f)) / 2``.  Faces are only ever counted by
tracing these orbits; no face labels are kept.  A rotation is read by
:func:`genus_of` or :func:`trace_faces`, and both first check it in one
pass over its darts (:meth:`RotationSystem.validate`), which also builds
the successor map they trace.

:func:`build_embedding` turns a verified family of k disjoint adjacent
pairs into an explicit embedding of genus at least k: embed a spanning
tree avoiding the pair edges (one face), then add each pair with a split
followed by a forced merge, then place the leftover edges.  It validates
once, then inserts: the family is checked up front, and
:class:`EmbeddingState`, its engine, inserts with no further check.  An
edge whose two corners lie on a common face splits that face (genus
unchanged); corners on distinct faces merge them (genus rises by one).

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
arcs they cut in the reverse cyclic order, so swapping two arcs keeps
the list.  The list is kept in blocks of about sqrt(n) darts, which the
swap moves whole, so a pair costs about sqrt(n) steps, not n.  A loop or
a parallel pair needs no lookup.  The rotations are flat lists indexed
by dart.  A leftover edge goes in at ``first_dart`` of both ends:
whether it splits or merges, the genus never drops, so the pairs' k stays
a lower bound.
:func:`build_embedding` takes the genus from one trace of the final
state, ``EmbeddingState.n_faces``.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence
from math import isqrt
from typing import NamedTuple

from .graph import (
    CertificationError,
    DisconnectedError,
    GraphError,
    MultiGraph,
    ParseError,
    format_dart,
    is_connected,
    parse_dart,
)
from .greedy import AdjacentPair, PairSet, _pair_family_tree


# ---------------------------------------------------------------------------
# Rotation systems and faces
# ---------------------------------------------------------------------------

class RotationSystem(NamedTuple):
    """Cyclic dart order per vertex.  Text form: ``v: e.end e.end ...``"""

    order: dict[int, tuple[int, ...]]

    def validate(self, g: MultiGraph) -> dict[int, int]:
        """Check that the rotation lists each dart of g once, under the
        vertex it lies at, over g's vertices, and return its successor
        map ``d -> sigma_next[d]``.  One pass over the darts; raises
        :class:`GraphError`."""
        if set(self.order) != set(g.vertices()):
            raise GraphError("rotation vertex set does not match graph")
        inc = g._inc
        sigma_next: dict[int, int] = {}
        listed = 0
        for v, cyc in self.order.items():
            listed += len(cyc)
            at_v = inc[v]  # the darts at v, each mapped to its far end
            for d, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                if d not in at_v:
                    raise GraphError(f"rotation at vertex {v} lists "
                                     f"{format_dart(d)}, not a dart of it")
                sigma_next[d] = nxt
        if len(sigma_next) != listed:
            raise GraphError("rotation lists a dart twice")
        if listed != 2 * g.n_edges:
            raise GraphError("rotation misses darts of the graph")
        return sigma_next

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


def _face_count(
    darts: Collection[int], sigma_next: Mapping[int, int] | Sequence[int]
) -> int:
    """Orbit count of ``d -> sigma_next[d ^ 1]`` over ``darts``, which
    the map must carry into themselves.  No validation.  ``darts`` is
    read twice, once for its largest dart: visited darts are marked in a
    list indexed by dart, which is faster than a set or a bytearray.

    :func:`genus_of` passes its successor map as both;
    :class:`EmbeddingState` passes its embedded darts and its list."""
    seen = [False] * (max(darts, default=-1) + 1)
    count = 0
    for d in darts:
        if not seen[d]:
            count += 1
            x = d
            while not seen[x]:
                seen[x] = True
                x = sigma_next[x ^ 1]
    return count


def surface_genus(g: MultiGraph, n_faces: int) -> int:
    """Genus of g embedded with ``n_faces`` traced faces (no edge: one).
    Raises :class:`CertificationError` if the Euler characteristic is odd
    or above 2."""
    chi = g.n_vertices - g.n_edges + (n_faces or 1)
    if chi > 2 or chi % 2:
        raise CertificationError(f"Euler characteristic {chi} is odd or > 2")
    return (2 - chi) // 2


def trace_faces(
    g: MultiGraph, rot: RotationSystem
) -> tuple[tuple[int, ...], ...]:
    """Face boundaries of the embedding given by ``rot``, each a dart
    cycle rotated to start at its least dart, sorted."""
    sigma_next = rot.validate(g)
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
    return tuple(sorted(faces))


def genus_of(g: MultiGraph, rot: RotationSystem) -> int:
    """Genus of the surface in which ``rot`` embeds the connected graph g."""
    if not is_connected(g):
        raise DisconnectedError("genus needs a connected graph")
    sigma_next = rot.validate(g)
    return surface_genus(g, _face_count(sigma_next, sigma_next))


# ---------------------------------------------------------------------------
# Incremental embedding
# ---------------------------------------------------------------------------

class EmbeddingState:
    """:func:`build_embedding`'s engine: the embedding of a growing
    subgraph on a fixed vertex set.  It starts from :meth:`tree_embedding`;
    :meth:`_insert_pair` and :meth:`_splice_edge` then insert with no
    check, the caller having verified its input.

    ``EmbeddingState(g)`` keeps g's endpoint map as ``ends``, read, not
    copied, so g must not change while the state is in use: dart 2·e
    lies at ``ends[e][0]`` and 2·e + 1 at ``ends[e][1]``, so the vertex
    of dart d is ``ends[d >> 1][d & 1]``.  Darts index the flat lists
    ``sigma_next`` and ``sigma_prev`` of 2·``g._next_id`` entries, the
    vertex rotations, -1 for a dart not embedded.  ``first_dart[v]``
    is a dart at v, -1 at a bare vertex.  Faces are counted by tracing; a
    dartless state counts one virtual face so Euler bookkeeping works
    from the start.  While the pairs go in there is one face, and
    ``corners`` holds ``first_dart`` of every vertex with darts in the
    order that face meets them, up to rotation, cut into blocks: Python
    lists, each non-empty and at most ``block_cap`` = max(16,
    2·isqrt(n)) long, built half full, with ``where[d]`` the block that
    holds the first dart d.  :meth:`_splice_edge` drops ``corners`` (sets
    it to None): the edge it puts in may split the face.
    """

    __slots__ = (
        "m_emb", "sigma_next", "sigma_prev", "ends", "first_dart",
        "corners", "where", "block_cap",
    )

    def __init__(self, g: MultiGraph):
        n_darts = 2 * g._next_id
        self.m_emb = 0
        self.sigma_next = [-1] * n_darts
        self.sigma_prev = [-1] * n_darts
        self.ends = g._edges
        self.where: list[list[int] | None] = [None] * n_darts
        self.first_dart = [-1] * g.n_vertices
        self.corners: list[list[int]] | None = []
        self.block_cap = max(16, 2 * isqrt(g.n_vertices))

    # -- constructor -------------------------------------------------------

    @classmethod
    def tree_embedding(
        cls, g: MultiGraph, tree_edges: "set[int] | frozenset[int]"
    ) -> "EmbeddingState":
        """Single-face embedding of a spanning tree, sorted darts per
        vertex, written straight into dart lists sized for every edge id
        of g."""
        n = g.n_vertices
        if len(tree_edges) != n - 1:
            raise GraphError("spanning tree needs n-1 edges")
        at: list[list[int]] = [[] for _ in range(n)]
        for eid in tree_edges:
            u, v = g.endpoints(eid)
            if u == v:
                raise GraphError("loop in spanning tree")
            at[u].append(2 * eid)
            at[v].append(2 * eid + 1)
        st = cls(g)
        sn, sp = st.sigma_next, st.sigma_prev
        for v, darts in enumerate(at):
            if darts:
                darts.sort()
                p = darts[-1]
                for d in darts:
                    sn[p] = d
                    sp[d] = p
                    p = d
                st.first_dart[v] = darts[0]
        st.m_emb = n - 1
        flat = st._trace_corners()
        if flat is None:
            raise GraphError("tree edges do not span the graph")
        st._set_corners(flat)
        return st

    # -- queries -----------------------------------------------------------

    @property
    def n_faces(self) -> int:
        """Face count by one O(m) trace."""
        return _face_count(self._darts(), self.sigma_next) or 1

    def _darts(self) -> list[int]:
        """The embedded darts, ascending."""
        return [d for d, nxt in enumerate(self.sigma_next) if nxt >= 0]

    def _trace_corners(self) -> list[int] | None:
        """``first_dart`` of every vertex with darts, in the order one
        trace of the face through some first dart meets them; None if
        that face misses some dart.  O(m)."""
        sn, fd = self.sigma_next, self.first_dart
        corners: list[int] = []
        if not self.m_emb:
            return corners
        firsts = set(fd)
        start = d = next(x for x in fd if x >= 0)
        n_darts = 2 * self.m_emb
        for steps in range(1, n_darts + 1):
            if d in firsts:
                corners.append(d)
            d = sn[d ^ 1]
            if d == start:
                return corners if steps == n_darts else None
        return None

    def rotation(self) -> RotationSystem:
        sn = self.sigma_next
        order = {}
        for v, start in enumerate(self.first_dart):
            cyc = []
            if start >= 0:
                cyc.append(start)
                d = sn[start]
                while d != start:
                    cyc.append(d)
                    d = sn[d]
            order[v] = _canonical_cycle(cyc)
        return RotationSystem(order)

    # -- the corner list ---------------------------------------------------

    def _set_corners(self, flat: list[int]) -> None:
        """Keep the first darts ``flat`` as ``corners``, in blocks half
        full."""
        half = self.block_cap // 2
        self.corners = [flat[i:i + half] for i in range(0, len(flat), half)]
        where = self.where
        for block in self.corners:
            for d in block:
                where[d] = block

    def _cut(self, bi: int, off: int) -> int:
        """Split block ``bi`` before its offset ``off``, moving the smaller
        half to a new block; returns the index of the block that starts
        there.  Blocks before ``bi`` keep their index, and every position
        before the cut its (block, offset)."""
        if not off:
            return bi
        blocks = self.corners
        block = blocks[bi]
        if 2 * off <= len(block):
            moved = block[:off]
            del block[:off]
            blocks.insert(bi, moved)
        else:
            moved = block[off:]
            del block[off:]
            blocks.insert(bi + 1, moved)
        where = self.where
        for d in moved:
            where[d] = moved
        return bi + 1

    def _merge_corners(self, x: int, y: int, z: int) -> bool:
        """Whether the first dart z lies on the arc [y, x) of the one face
        rather than on [x, y), read from the positions of the first darts
        x, y and z in ``corners``.

        Also updates ``corners`` for the pair that asks: x, y and z cut
        the face into three arcs, and the merged face meets them in the
        reverse cyclic order, which swapping the two arcs that do not wrap
        around the end of the list gives.  A position is the int block
        index · ``block_cap`` + offset, so positions compare as ints, and
        a few comparisons put the three in order.  The blocks are cut at
        the three darts, rightmost first, the two arcs swap as runs of
        whole blocks, and at each of the three new seams, right to left,
        the two blocks that meet merge, the smaller moving, if together
        they hold at most ``block_cap`` darts.
        """
        blocks, where, cap = self.corners, self.where, self.block_cap
        bx, by, bz = where[x], where[y], where[z]
        i = blocks.index(bx) * cap + bx.index(x)
        j = blocks.index(by) * cap + by.index(y)
        k = blocks.index(bz) * cap + bz.index(z)
        # z is on [y, x) iff i, j, k are in cyclic order
        if i < j:
            if j < k:
                first, second, third, on_yx = i, j, k, True
            elif i < k:
                first, second, third, on_yx = i, k, j, False
            else:
                first, second, third, on_yx = k, i, j, True
        elif i < k:
            first, second, third, on_yx = j, i, k, False
        elif j < k:
            first, second, third, on_yx = j, k, i, True
        else:
            first, second, third, on_yx = k, j, i, False
        lo, mo, ho = first % cap, second % cap, third % cap
        # a cut inside a block adds one before every later cut
        hi = self._cut(third // cap, ho)
        mid = self._cut(second // cap, mo)
        hi += mo > 0
        low = self._cut(first // cap, lo)
        mid += lo > 0
        hi += lo > 0
        blocks[low:hi] = blocks[mid:hi] + blocks[low:mid]
        for s in (hi, low + hi - mid, low):
            if 0 < s < len(blocks):
                left, right = blocks[s - 1], blocks[s]
                if len(left) + len(right) <= cap:
                    if len(left) >= len(right):
                        left += right
                        for d in right:
                            where[d] = left
                        del blocks[s]
                    else:
                        right[:0] = left
                        for d in left:
                            where[d] = right
                        del blocks[s - 1]
        return on_yx

    # -- insertion ---------------------------------------------------------

    def _splice(self, d: int, ref: int) -> None:
        """Dart d before ``ref``; ``ref`` -1 starts the rotation of d's
        vertex."""
        sn, sp = self.sigma_next, self.sigma_prev
        if ref < 0:
            sn[d] = sp[d] = d
            self.first_dart[self.ends[d >> 1][d & 1]] = d
            return
        p = sp[ref]
        sn[p] = d
        sp[d] = p
        sn[d] = ref
        sp[ref] = d

    def _splice_edge(self, eid: int, corner_u: int, corner_v: int) -> None:
        """Splice edge ``eid`` = (u, v), dart 2*eid at u and 2*eid+1 at v,
        in before the given corners, and drop ``corners``.  A bare end
        (corner -1) gets a one-dart rotation; a loop on a bare vertex puts
        its second dart next to the first."""
        u, v = self.ends[eid]
        d0 = 2 * eid
        self._splice(d0, corner_u)
        self._splice(d0 + 1, d0 if corner_v < 0 and u == v else corner_v)
        self.m_emb += 1
        self.corners = None

    def _insert_pair(self, e: int, f: int, w: int) -> None:
        """Insert the pair of edges e = (eu, ev) and f = (fu, fv) of
        ``ends`` meeting at w, raising the genus by one, with no check:
        the caller has verified the family (w is an end of both edges,
        neither is embedded) and every end of the pair carries a dart,
        except for the first loop of a dartless state, so the first edge
        splits the one face.

        The first edge goes in at ``first_dart`` of its ends, x at the
        witness w and y at its far end a, and splits the face: its witness
        dart ``d_w`` is then flanked by a corner on each new face, before
        ``d_w`` on the face of the arc [y, x) and before ``after =
        sigma_next[d_w]`` on the face of [x, y).  The second edge's far
        end b takes z = ``first_dart[b]``, and its witness end enters at
        the flanking corner on the other face, merging the two back into
        one.  In general :meth:`_merge_corners` tells which face holds z
        and keeps ``corners``; the rest is O(1).  A loop as second edge
        goes in at both flanking corners.  If the first edge is a loop,
        its far end's face is the one-dart face {``after``}, and if b = a,
        z = y lies on [y, x); either way the witness end goes before
        ``after``.  Only the first loop of a dartless state starts on a
        bare vertex: its first dart makes a one-dart rotation there, and
        ``corners`` is dropped as :meth:`_splice_edge` drops it.  The
        four splices are :meth:`_splice` written out in place, each
        with a dart as ``ref``.
        """
        sn, sp, fd = self.sigma_next, self.sigma_prev, self.first_dart
        ends = self.ends
        eu, ev = ends[e]
        fu, fv = ends[f]
        d0 = 2 * e
        x = fd[eu]
        if x < 0:  # the first loop of a dartless state: d0 alone at eu
            sn[d0] = sp[d0] = fd[eu] = d0
            self.corners = None
        else:  # d0 before x
            p = sp[x]
            sn[p] = d0
            sp[d0] = p
            sn[d0] = x
            sp[x] = d0
        # d0 + 1 before first_dart[ev]
        r = fd[ev]
        p = sp[r]
        sn[p] = d0 + 1
        sp[d0 + 1] = p
        sn[d0 + 1] = r
        sp[r] = d0 + 1
        if eu == w:
            d_w, a = d0, ev
        else:
            d_w, a = d0 + 1, eu
        after = sn[d_w]
        b = fv if fu == w else fu
        if b == w:
            ref_w, ref_b = d_w, after
        else:
            ref_b = fd[b]
            # after is x = first_dart[w] unless the first edge is a loop
            on_d_w_face = a == w or a == b or self._merge_corners(
                after, fd[a], ref_b)
            ref_w = after if on_d_w_face else d_w
        cu, cv = (ref_w, ref_b) if fu == w else (ref_b, ref_w)
        # 2·f before cu, then 2·f + 1 before cv
        d1 = 2 * f
        p = sp[cu]
        sn[p] = d1
        sp[d1] = p
        sn[d1] = cu
        sp[cu] = d1
        d1 += 1
        p = sp[cv]
        sn[p] = d1
        sp[d1] = p
        sn[d1] = cv
        sp[cv] = d1
        self.m_emb += 2

    # -- auditing ----------------------------------------------------------

    def _audit(self) -> None:
        """Check every invariant from scratch.  Raises
        :class:`CertificationError`, also under ``python -O``."""
        self._audit_darts(self._darts())
        n_faces = self.n_faces
        if self.corners is not None:
            traced = self._trace_corners()
            flat = [d for block in self.corners for d in block]
            _require(traced is not None and _canonical_cycle(traced)
                     == _canonical_cycle(flat),
                     "corner list is not the face order of the first darts")
            _require(all(0 < len(block) <= self.block_cap
                         and all(self.where[d] is block for d in block)
                         for block in self.corners),
                     "corner list blocks are empty, too long or misfiled")
        # Euler parity only makes sense once every vertex carries a dart
        if -1 not in self.first_dart:
            chi = len(self.first_dart) - self.m_emb + n_faces
            _require(chi % 2 == 0, f"odd Euler characteristic {chi}")

    def _audit_edges(self, eids) -> None:
        """Check the links that splicing in ``eids`` can have changed: at
        their darts and the darts before and after them in rotation.  O(1)
        per edge."""
        sp, sn = self.sigma_prev, self.sigma_next
        near = set()
        for eid in eids:
            for d in (2 * eid, 2 * eid + 1):
                near.update((d, sp[d], sn[d]))
        near.discard(-1)
        self._audit_darts(near)

    def _audit_darts(self, darts) -> None:
        """Check the rotation links leaving each of ``darts``: the next
        dart links back and lies at the same vertex of the graph."""
        sn, sp, ends = self.sigma_next, self.sigma_prev, self.ends
        for d in darts:
            nxt = sn[d]
            _require(0 <= nxt < len(sp) and sp[nxt] == d,
                     f"sigma_prev of dart {nxt}")
            _require(nxt >> 1 in ends and d >> 1 in ends
                     and ends[nxt >> 1][nxt & 1] == ends[d >> 1][d & 1],
                     f"rotation of dart {d} leaves its vertex")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CertificationError(f"embedding check failed: {what}")


# ---------------------------------------------------------------------------
# Building a certified embedding from a pair family
# ---------------------------------------------------------------------------

class EmbeddingResult(NamedTuple):
    rotation: RotationSystem
    genus: int
    n_faces: int


def build_embedding(
    g: MultiGraph, pairs: PairSet | Sequence[AdjacentPair], *,
    check: bool = False,
) -> EmbeddingResult:
    """Embedding of g with genus at least ``len(pairs)``.

    Validates once, then inserts; this is the one way into
    :class:`EmbeddingState`.  Verifies the pair family as
    :func:`verify_pair_set` does, with the BFS that checks connectivity
    also giving the spanning tree that avoids the pair edges; a failure
    raises :class:`GraphError` with the same reason.  Then embeds the
    tree and applies the pairs in order by
    :meth:`EmbeddingState._insert_pair`, which checks nothing: the family
    passed the checks, no pair edge is in the tree, and every pair end
    carries a dart, since for n >= 2 the tree spans every vertex (for
    n = 1 every edge is a loop, and only the first starts bare).  Each
    pair raises the genus by exactly one.  Then it splices each leftover
    edge, by ascending id from one set difference (g's edges minus the
    tree and the pair edges), in at ``first_dart`` of its ends (a bare
    vertex, -1, is the one vertex of a graph of loops); a leftover edge
    splits or merges faces, so it never lowers the genus.  The genus
    comes from one trace of the final rotations.
    Raises :class:`CertificationError` if an edge is missing, the traced
    Euler characteristic is odd or above 2, or the genus ends below the
    pair count.  ``check=True`` audits the darts each insertion touches,
    then the whole state once, and compares the genus with
    :func:`genus_of`; that keeps the check O(m).
    """
    if not isinstance(pairs, PairSet):
        pairs = PairSet(list(pairs))
    pair_edges, tree, reason = _pair_family_tree(g, pairs)
    if reason is not None:
        raise GraphError(f"pair family fails verification: {reason}")
    st = EmbeddingState.tree_embedding(g, tree)
    # validated above, so each pair goes straight to the insertion body
    insert = st._insert_pair
    for e, f, w in pairs:
        insert(e, f, w)
        if check:
            st._audit_edges((e, f))
    edges, fd = g._edges, st.first_dart
    for eid in sorted(edges.keys() - tree - pair_edges):
        u, v = edges[eid]
        st._splice_edge(eid, fd[u], fd[v])
        if check:
            st._audit_edges((eid,))
    if st.m_emb != g.n_edges:
        raise CertificationError(f"embedded {st.m_emb} of {g.n_edges} edges")
    n_faces = st.n_faces
    genus = surface_genus(g, n_faces)
    k = len(pairs.pairs)
    if genus < k:
        raise CertificationError(
            f"embedding genus {genus} is below the {k} certified pairs")
    rot = st.rotation()
    if check:
        st._audit()
        _require(genus_of(g, rot) == genus, "genus of the emitted rotation")
    return EmbeddingResult(rotation=rot, genus=genus, n_faces=n_faces)
