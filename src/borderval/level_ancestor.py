"""Incremental level-ancestor queries over a grow-by-leaf tree.

Skew-binary jump pointers (E. W. Myers, "An applicative random-access
stack", IPL 1983): every node keeps one parent, one jump and one depth, in
three flat columns; callers read ``parent`` and ``depth`` in place.  add_leaf
sets the jump in O(1), queries step by jump or by parent in O(log n).  Their
operation counts are kept apart from the enclosing validator's core ops, so
its per-push work can be reported with and without them (Alstrup and Holm,
ICALP 2000, give O(1) queries).

Nodes are numbered 1..n in insertion order; node 1 is the root.  Slot 0 is a
virtual node at depth 0 above the root, so no column needs a special case.
"""

from __future__ import annotations

__all__ = ["JumpPointerLA"]


class JumpPointerLA:
    def __init__(self):
        self.parent = [0]
        self._jump = [0]
        self.depth = [0]
        self.ops = 0

    def add_leaf(self, parent: int) -> int:
        """Append a node under ``parent`` (0 for the root); returns its id.

        Myers' rule: when the parent's jump and the jump's own jump span the
        same number of levels, the new node jumps over both; otherwise it
        jumps to its parent."""
        jump, depth = self._jump, self.depth
        j = jump[parent]
        jj = jump[j]
        dp = depth[parent]
        jump.append(jj if dp - depth[j] == depth[j] - depth[jj] else parent)
        depth.append(dp + 1)
        self.parent.append(parent)
        self.ops += 1
        return len(depth) - 1

    def la(self, node: int, delta: int) -> int:
        """Ancestor ``delta`` levels above ``node`` (delta 0 = the node)."""
        parent, jump, depth = self.parent, self._jump, self.depth
        if delta < 0 or delta >= depth[node]:
            raise ValueError(f"no ancestor {delta} levels above node {node}")
        target = depth[node] - delta
        v = node
        while depth[v] > target:
            j = jump[v]
            v = j if depth[j] >= target else parent[v]
            self.ops += 1
        return v

    def naive_la(self, node: int, delta: int) -> int:
        """Father-chain reference; for cross-checks only."""
        v = node
        for _ in range(delta):
            v = self.parent[v]
            if v == 0:
                raise ValueError("walked past the root")
        return v
