"""Real-time border-array validation in packed sublinear storage.

Same accept/reject language, witness letters and alphabet count as the other
two validators, but the per-position state is a handful of narrow fields
instead of word-sized candidate data:

    letter, path-alphabet      (alphabet is logarithmic, so ~loglog bits)
    b       bit length of the position's strict father value sf (0 = none)
    kx      chain index of the candidate removed at this position (0 = none)
    ord     index of the block holding sf's data inside its window group

where sf(x) = f[x] when A[x] < f[x] (f[x] = A[x-1]+1), else sf(f[x]).
Word-sized values live only in *blocks*, one per distinct strict-father value
per window: the block for value v holds v's strict ancestor chain (two slots
per bit-length class; the chain halves every three steps, so two suffice)
and flag bits marking which ancestors are valid candidates.  For bit class
a = bitlen(v), each group of at most 48 consecutive a-blocks serves one input
window [l*2^a, (l+1)*2^a); the 48 cap is the window property of strict
values, asserted, never assumed.

The candidate set above a committed node u satisfies

    S(u) = ({sf(u)} | S(sf(u))) - {X(u)}

with X(u) the value indexed by kx[u], so membership tests and block creation
are a constant number of slot reads on the source block, found through u's
own (b, ord) record: the block for any committed value v is the one recorded
by the position v itself is the strict father of; equivalently, the block
for sf(u) is groups[(b[u], u >> b[u])][ord[u]] for every committed u.

Blocks are filled eagerly by default; in lazy mode only the value header is
written at creation and contents are copied by a budgeted scheduler
(smallest class first, one window of grace), with reads chasing through
source blocks until a filled one is met.  Chase lengths are bounded by a
constant and asserted.

See docs/succinct_layout.md for the bit-exact layout (format 1) and the
memory accounting rules.
"""

from __future__ import annotations

from collections import deque

from .pi_online import PushAfterFailure, Verdict, WitnessTracker

__all__ = ["SuccinctValidator", "CapacityViolation", "window_distinct_check", "WINDOW_CAP"]

WINDOW_CAP = 48
CHASE_CAP = 24  # bound on in-flight lookups; constant by the copy deadline


class CapacityViolation(AssertionError):
    """More distinct strict-father values in one window than the layout
    reserves; an internal bug, never a data-dependent condition."""


class _Block:
    __slots__ = ("value", "src_value", "removed", "chain", "flags", "ready", "deadline", "fill_pos")

    def __init__(self, value: int, src_value: int, removed: int, deadline: int):
        self.value = value
        self.src_value = src_value  # strict father of the node `value`
        self.removed = removed  # X(value); 0 = nothing removed
        self.chain: list[int] | None = None  # strict ancestors of value, descending; set once ready
        self.flags: int = 0  # bit t set = chain[t] in S(value)
        self.ready = False
        self.deadline = deadline  # must be ready before this position (lazy mode)
        self.fill_pos = 0  # chain words copied so far


class SuccinctValidator(WitnessTracker):
    def __init__(self, n_max: int = 2**32, lazy: bool = False, beta: int = 8):
        super().__init__()
        self.n_max = n_max
        self.lazy = lazy
        self.beta = beta
        # per-position narrow records (letter and path alphabet in the base)
        self._b: list[int] = []
        self._kx: list[int] = []
        self._ord: list[int] = []
        self._prev_a = -1  # A[0] = -1 makes the father of position 1 zero
        # block pools: (alpha, window) -> blocks in creation order
        self._groups: dict[tuple[int, int], list[_Block]] = {}
        self._blocks_created = 0
        # lazy copying
        self._waiting: dict[int, deque[_Block]] = {}
        self._copylist: dict[int, deque[_Block]] = {}
        # class bit vectors: bit g of _marked = class g's window ended with
        # blocks waiting; bit g of _busy = _copylist[g] is non-empty
        self._marked = 0
        self._busy = 0
        self._chase_max = 0
        self._window_fill_max = 0

    # -- record plumbing ------------------------------------------------------

    def _sf_block(self, u: int) -> _Block:
        """Block of sf(u), addressed through u's own record."""
        alpha = self._b[u - 1]
        group = self._groups[(alpha, u >> alpha)]
        return group[self._ord[u - 1]]

    def _sf_value(self, u: int) -> int:
        return 0 if self._b[u - 1] == 0 else self._sf_block(u).value

    # -- reads that may chase through unfilled blocks ---------------------------

    def _walk(self, u: int, a: int = -1, removed: int = 0, last: int = -1) -> tuple[int, int, int, _Block | None]:
        """Walk chain(u) = [sf(u), sf(sf(u)), ...] level by level through
        unfilled blocks.

        Level t holds the chain's t-th value (0 past its end), that value's
        block, and the removal above it: ``removed`` at level 0, then the
        ``removed`` of each unfilled block passed.  The walk stops at the
        first level t that is ``last``, whose value or removal is ``a`` (the
        defaults match no level), that ends the chain, or whose block is
        filled (its chain and flags stand for all deeper levels).  Notes t
        as a chase length and returns (t, value, removal, block).
        """
        block = self._sf_block(u) if self._b[u - 1] else None
        value = block.value if block else 0
        t = 0
        while t != last and a != value and a != removed and value and not block.ready:
            value, removed = block.src_value, block.removed
            block = self._sf_block(block.value) if value else None
            t += 1
            if t > CHASE_CAP:
                raise AssertionError("in-flight chase exceeded its constant bound")
        if t > self._chase_max:
            self._chase_max = t
        return t, value, removed, block

    def _chain_find(self, u: int, a: int) -> int:
        """1-based index of a in chain(u) if a is in S(u), else 0; a committed
        node's set is S(u) = ({sf(u)} | S(sf(u))) - {X(u)}."""
        t, value, removed, block = self._walk(u, a, self._x_value(u))
        if a == removed or value == 0:
            return 0
        if a == value:
            return t + 1
        chain = block.chain
        if a not in chain:
            return 0
        s = chain.index(a)
        return t + 2 + s if block.flags >> s & 1 else 0

    def _chain_select(self, u: int, r: int) -> int:
        """r-th element (1-based) of chain(u)."""
        t, value, _, block = self._walk(u, last=r - 1)
        if t == r - 1:
            return value
        if block is None or r - 2 - t >= len(block.chain):
            raise AssertionError(f"chain of {u} is shorter than {r}")
        return block.chain[r - 2 - t]

    def _x_value(self, u: int) -> int:
        """X(u): the candidate removed going from sf(u)'s set to u's set."""
        k = self._kx[u - 1]
        return 0 if k == 0 else self._chain_select(u, k)

    # -- block creation ---------------------------------------------------------

    def _ensure_block(self, value: int, pos: int) -> int:
        """Find or create the block for ``value`` in the window of ``pos``;
        returns its ordinal within the group."""
        alpha = value.bit_length()
        window = pos >> alpha
        group = self._groups.setdefault((alpha, window), [])
        for ordinal, blk in enumerate(group):  # <= 48 headers, constant scan
            if blk.value == value:
                return ordinal
        if len(group) >= WINDOW_CAP:
            raise CapacityViolation(
                f"window (alpha={alpha}, l={window}) already holds {WINDOW_CAP} values"
            )
        src = self._sf_value(value)
        removed = self._x_value(value)
        blk = _Block(value, src, removed, deadline=(window + 2) << alpha)
        group.append(blk)
        self._blocks_created += 1
        if len(group) > self._window_fill_max:
            self._window_fill_max = len(group)
        if self.lazy:
            self._waiting.setdefault(alpha, deque()).append(blk)
        else:
            self._fill(blk)
        return len(group) - 1

    def _fill(self, blk: _Block, budget: int = 1 << 30) -> tuple[bool, int]:
        """Copy up to ``budget`` chain words into blk from its source block;
        once all are copied, set the flags and mark blk ready.  Returns
        (ready, budget left).  Eager mode fills each block at creation, when
        its source block is already filled."""
        w = blk.src_value
        if w:
            src = self._sf_block(blk.value)
            if not src.ready:
                # the source sits no later in the schedule; stall this tick
                return False, 0
            chain = [w] + src.chain
            flags = (src.flags << 1) | 1  # inherit S(w) flags, add w itself
        else:
            chain, flags = [], 0
        left = len(chain) - blk.fill_pos
        if budget < left:
            blk.fill_pos += budget
            return False, 0
        if blk.removed in chain:
            flags &= ~(1 << chain.index(blk.removed))
        blk.chain = chain
        blk.flags = flags
        blk.ready = True
        return True, budget - (left or 1)  # an empty chain costs one step

    # -- lazy copying ------------------------------------------------------------

    def _scheduler_tick(self, pos: int) -> None:
        """Mark window boundaries, check deadlines, spend the copy budget.

        Class g's deadlines are multiples of 2^g and do not decrease along
        its lists, so checking the heads of class g only where a class-g
        window ends finds a missed deadline at the first position that
        misses one."""
        p, gamma = pos, 1
        while p % 2 == 0:
            wl = self._waiting.get(gamma)
            if wl:
                self._marked |= 1 << gamma
            for lst in (wl, self._copylist.get(gamma)):
                if lst and not lst[0].ready and lst[0].deadline <= pos:
                    raise AssertionError(f"copy deadline missed at position {pos}")
            p >>= 1
            gamma += 1
        budget = self.beta
        while budget > 0 and (self._busy or self._marked):
            gamma = self._smallest_pending()
            lst = self._copylist[gamma]
            done, budget = self._fill(lst[0], budget)
            if done:
                lst.popleft()
                if not lst:
                    self._busy &= ~(1 << gamma)

    def _smallest_pending(self) -> int:
        """Lowest class with a copy list or a window mark; a marked class
        first moves its waiting list onto its copy list."""
        pending = self._busy | self._marked
        gamma = (pending & -pending).bit_length() - 1
        if self._marked >> gamma & 1:
            self._copylist.setdefault(gamma, deque()).extend(self._waiting[gamma])
            self._waiting[gamma].clear()
            self._marked &= ~(1 << gamma)
            self._busy |= 1 << gamma
        return gamma

    def finish(self) -> None:
        """Drain pending copies (lazy mode); deadlines no longer apply."""
        for gamma, wl in self._waiting.items():
            if wl:
                self._copylist.setdefault(gamma, deque()).extend(wl)
                wl.clear()
        self._marked = 0
        for lst in self._copylist.values():
            while lst:
                done, _ = self._fill(lst[0])
                if done:
                    lst.popleft()
        self._busy = 0

    # -- the push ------------------------------------------------------------------

    def push(self, a: int) -> Verdict:
        return self.push_many((a,))

    def push_many(self, values) -> Verdict:
        if self.failed_at is not None:
            raise PushAfterFailure(f"stream failed at {self.failed_at}")
        b_list, kx_list, ord_list = self._b, self._kx, self._ord
        letters, alphs = self._letter, self._alph
        chain_find, sf_value, ensure_block = self._chain_find, self._sf_value, self._ensure_block
        next_letter = self._next_letter
        tick = self._scheduler_tick if self.lazy else None
        x = len(letters)
        for a in values:
            x += 1
            f = self._prev_a + 1
            if a < 0 or a > f:
                return self._fail(x)

            if a == 0:
                kx, sf = 0, f
            elif a < f:
                idx = chain_find(f, a)
                if not idx:
                    return self._fail(x)
                kx, sf = 1 + idx, f
            else:  # a == f: the slope inherits the removal record and strict father
                kx, sf = kx_list[f - 1], sf_value(f)

            if sf > 0:
                ordinal = ensure_block(sf, x)
                b_list.append(sf.bit_length())
                ord_list.append(ordinal)
            else:
                b_list.append(0)
                ord_list.append(0)
            kx_list.append(kx)

            letter, alph = next_letter(a, f)
            letters.append(letter)
            alphs.append(alph)
            self._prev_a = a

            if tick:
                tick(x)
        return Verdict(True, None, self.max_alphabet)

    # -- counters and memory accounting -------------------------------------------

    def stats(self) -> dict[str, int]:
        """Logical bits of the declared layout (see docs/succinct_layout.md),
        the block and chase counters, and ``total_ops``: one per push, the
        rejected one included."""
        n = len(self._letter)
        nm = self.n_max
        sigma_bits = max(1, (nm.bit_length() + 2).bit_length())
        b_bits = max(1, (nm.bit_length() + 1).bit_length())
        kx_bits = max(1, (3 * nm.bit_length() + 5).bit_length())
        ord_bits = (WINDOW_CAP - 1).bit_length()
        per_position = n * (2 * sigma_bits + b_bits + kx_bits + ord_bits)

        used_blocks = 0
        for (alpha, _), group in self._groups.items():
            used_blocks += len(group) * _block_bits(alpha)
        allocated_blocks = 0
        for alpha in range(1, max(1, n.bit_length()) + 1):
            windows = (n >> alpha) + 1
            allocated_blocks += WINDOW_CAP * windows * _block_bits(alpha)

        sched_entries = sum(len(d) for d in self._waiting.values()) + sum(
            len(d) for d in self._copylist.values()
        )
        scheduler = sched_entries * (nm.bit_length() + 12) + 2 * nm.bit_length()
        return {
            "memory_bits": per_position + used_blocks + scheduler + 4 * nm.bit_length(),
            "memory_bits_allocated": per_position + allocated_blocks,
            "blocks_created": self._blocks_created,
            "chase_max": self._chase_max,
            "per_position": per_position,
            "blocks_used": used_blocks,
            "blocks_allocated_formula": allocated_blocks,
            "scheduler": scheduler,
            "window_fill_max": self._window_fill_max,
            "total_ops": n + (self.failed_at is not None),
        }


def _block_bits(alpha: int) -> int:
    # value + two slots per class (class c entry is c bits) + flag and
    # occupancy bits per slot + status flags
    return alpha + alpha * (alpha + 1) + 4 * alpha + 3


def window_distinct_check(pp) -> int:
    """Over every k and every window of 2^k consecutive positions of a strict
    border array, count distinct values within [2^k, 2^(k+1)); returns the
    maximum over all windows (the block layout reserves 48 per window)."""
    n = len(pp)
    best = 0
    k = 0
    while (1 << k) <= n:
        width = 1 << k
        lo, hi = 1 << k, 1 << (k + 1)
        counts: dict[int, int] = {}
        distinct = 0
        for j in range(n):
            v = pp[j]
            if lo <= v < hi:
                c = counts.get(v, 0)
                if c == 0:
                    distinct += 1
                counts[v] = c + 1
            if j >= width:
                u = pp[j - width]
                if lo <= u < hi:
                    c = counts[u] - 1
                    counts[u] = c
                    if c == 0:
                        distinct -= 1
            if j >= width - 1 and distinct > best:
                best = distinct
        k += 1
    return best
