"""From-scratch connectivity reference for checking ``DfsBackend``."""

from __future__ import annotations

from collections import deque

from maxgenus import MultiGraph, is_connected


class MirrorGraph:
    """A ``MultiGraph`` that receives the backend's deletes and inserts and
    answers its queries by plain traversal.

    ``MultiGraph`` restores edges only in LIFO order, so a re-inserted edge
    enters the mirror under a fresh id; ``_ids`` maps backend ids to the
    mirror's current ones.
    """

    def __init__(self, g: MultiGraph):
        self.g = g.copy()
        self._ends = {e: g.endpoints(e) for e in g.edge_ids()}
        self._ids = {e: e for e in g.edge_ids()}

    def delete_edge(self, eid: int) -> None:
        self.g.delete_edge(self._ids.pop(eid))

    def insert_edge(self, eid: int) -> None:
        self._ids[eid] = self.g.add_edge(*self._ends[eid])

    def connected(self, u: int, v: int) -> bool:
        seen = {u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for eid in self.g.incident_edges(x):
                a, b = self.g.endpoints(eid)
                w = b if a == x else a
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return v in seen

    def connected_all(self) -> bool:
        return is_connected(self.g)
