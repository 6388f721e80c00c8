"""From-scratch connectivity reference for checking ``DfsBackend``."""

from __future__ import annotations

from collections import deque

from maxgenus import MultiGraph, is_connected


class MirrorGraph:
    """A ``MultiGraph`` that receives the backend's deletes and inserts and
    answers its queries by plain traversal.  A re-inserted edge comes
    back under its own id, from the record its deletion returned.  The
    traversal goes through ``incident_edges`` and ``endpoints``, not the
    dart map the package's traversals walk, so the two share no code.
    """

    def __init__(self, g: MultiGraph):
        self.g = g.copy()
        self._removed: dict[int, list[tuple[int, int, int]]] = {}

    def delete_edge(self, eid: int) -> None:
        self._removed[eid] = self.g.delete_edges((eid,))

    def insert_edge(self, eid: int) -> None:
        self.g.restore_edges(self._removed.pop(eid))

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
