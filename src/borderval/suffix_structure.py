"""Online suffix index over an integer stream for self-overlap queries.

The one query the strict-array validator needs: after m appended symbols, is
stream[p+l..m] equal to stream[p..m-l]?  (Equivalently: does stream[p..m]
have period l.)

Implementation: Ukkonen's online suffix tree over the integer alphabet
(hashed child maps), with a father pointer per node and the leaf table
"suffix start -> leaf".  Two query paths:

* If the suffix starting at p+l already has its own leaf, the answer is
  False in O(1): a leaf is created exactly when a suffix stops being a
  prefix of any longer suffix, and that status never reverts, while a True
  answer would make stream[p+l..m] a prefix of stream[p..m].
* Otherwise that suffix is one of the tree's pending (implicit) suffixes and
  the two segments are compared symbol by symbol with early exit.  The
  pending tail is exactly the set of repeated suffixes, so this comparison
  is bounded by the tree's current remainder.

Every comparison and tree step is counted; ``stats()`` reports the total
and the costliest query.
"""

from __future__ import annotations

__all__ = ["OnlineSuffixIndex"]


class _Node:
    __slots__ = ("children", "start", "end", "slink", "parent")

    def __init__(self, start: int, end: int | None, parent):
        self.children: dict[int, _Node] = {}
        self.start = start  # edge label = stream[start:end], 0-based
        self.end = end  # None = open (leaf), grows with the stream
        self.slink: _Node | None = None
        self.parent = parent


class OnlineSuffixIndex:
    def __init__(self):
        self._s: list[int] = []
        self.root = _Node(-1, -1, None)
        self._active_node = self.root
        self._active_edge = 0  # index into the stream
        self._active_len = 0
        self._remainder = 0
        self._leaves: list[_Node] = []  # leaf of suffix j+1 at index j
        self._ops_total = 0
        self._query_ops_max = 0

    @property
    def size(self) -> int:
        return len(self._s)

    def _edge_len(self, node: _Node) -> int:
        end = node.end if node.end is not None else len(self._s)
        return end - node.start

    def append(self, symbol: int) -> None:
        """Extend the index by one symbol; amortized logarithmic work."""
        s = self._s
        s.append(symbol)
        pos = len(s) - 1
        self._remainder += 1
        last_internal: _Node | None = None
        ops = 0

        while self._remainder > 0:
            ops += 1
            if self._active_len == 0:
                self._active_edge = pos
            edge_sym = s[self._active_edge]
            child = self._active_node.children.get(edge_sym)
            if child is None:
                leaf = _Node(pos, None, self._active_node)
                self._active_node.children[edge_sym] = leaf
                self._leaves.append(leaf)
                if last_internal is not None:
                    last_internal.slink = self._active_node
                    last_internal = None
            else:
                edge_len = self._edge_len(child)
                if self._active_len >= edge_len:
                    self._active_edge += edge_len
                    self._active_len -= edge_len
                    self._active_node = child
                    continue
                if s[child.start + self._active_len] == symbol:
                    self._active_len += 1
                    if last_internal is not None:
                        last_internal.slink = self._active_node
                    break
                split = _Node(child.start, child.start + self._active_len, self._active_node)
                self._active_node.children[edge_sym] = split
                child.start += self._active_len
                child.parent = split
                split.children[s[child.start]] = child
                leaf = _Node(pos, None, split)
                split.children[symbol] = leaf
                self._leaves.append(leaf)
                if last_internal is not None:
                    last_internal.slink = split
                last_internal = split

            self._remainder -= 1
            if self._active_node is self.root and self._active_len > 0:
                self._active_len -= 1
                self._active_edge = pos - self._remainder + 1
            elif self._active_node is not self.root:
                self._active_node = self._active_node.slink or self.root

        self._ops_total += ops

    # ------------------------------------------------------------------

    def _explicit_suffixes(self) -> int:
        """Suffix starts 1..k currently owning a leaf."""
        return len(self._leaves)

    def is_suffix_prefix_of_suffix(self, p: int, l: int, m: int) -> bool:
        """True iff stream[p+l..m] == stream[p..m-l] (1-based, inclusive).

        Requires the index to cover exactly positions 1..m.
        """
        if m != len(self._s):
            raise ValueError(f"index covers 1..{len(self._s)}, query expects 1..{m}")
        if p < 1 or l < 0 or p + l > m + 1:
            raise ValueError(f"query out of range: p={p} l={l} m={m}")
        ops = 1
        result = True  # also for an empty comparison
        if l and p + l <= m:
            if p + l <= self._explicit_suffixes():
                # explicit suffix: provably not a prefix of the longer suffix
                result = False
            else:
                s = self._s
                i = p + l - 1
                j = p - 1
                while i < m:
                    ops += 1
                    if s[i] != s[j]:
                        result = False
                        break
                    i += 1
                    j += 1
        self._ops_total += ops
        if ops > self._query_ops_max:
            self._query_ops_max = ops
        return result

    def stats(self) -> dict[str, int]:
        """Counted tree steps and query comparisons, and the costliest
        query apart."""
        return {"total_ops": self._ops_total, "query_ops_max": self._query_ops_max}

    def naive_query(self, p: int, l: int, m: int) -> bool:
        """Direct definition, for cross-checking."""
        if l == 0 or p + l > m:
            return True
        s = self._s
        return s[p + l - 1 : m] == s[p - 1 : m - l]
