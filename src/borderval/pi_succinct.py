"""Real-time border-array validation in packed sublinear storage.

Same language, witness letters and alphabet count as the other engines, but
each position keeps narrow fields only: letter and path alphabet, b =
bitlen(sf) of its strict father value sf (sf(x) = f[x] when A[x] < f[x],
else sf(f[x]); 0 = none), kx = chain index of the candidate it removes, and
ord = its sf block's index in a window group.  Word-sized values live in
blocks, one per distinct strict-father value v per window of 2^bitlen(v)
positions (at most 48 per window, asserted): v's strict ancestor chain, at
most two per bit-length class, each flagged when it is in

    S(v) = ({sf(v)} | S(sf(v))) - {X(v)},   X(v) indexed by kx[v].

Storage is flat: bytearrays per position, an array per block field, one
array of chain words, and per class a directory of block ids with a head
per window, so the block of sf(u) is ids[a][heads[a][u >> a] + ord[u]] with
a = b[u].  Lazy mode copies chains on a budgeted scheduler and reads chase
through unfilled source blocks a bounded, asserted number of steps.  The
layout (format 1), its Python form and the accounting rules are in
docs/succinct_layout.md.
"""

from __future__ import annotations

from array import array

from .pi_online import PushAfterFailure, Verdict, WitnessTracker

__all__ = ["SuccinctValidator", "CapacityViolation", "window_distinct_check", "WINDOW_CAP"]

WINDOW_CAP = 48
CHASE_CAP = 24  # bound on in-flight lookups; constant by the copy deadline
CLASSES = 64  # bit lengths of values an array("q") holds


class CapacityViolation(AssertionError):
    """More distinct strict-father values in one window than the layout
    reserves; an internal bug, never a data-dependent condition."""


class SuccinctValidator(WitnessTracker):
    def __init__(self, n_max: int = 2**32, lazy: bool = False, beta: int = 8):
        if n_max < 1 or beta < 1:
            raise ValueError(f"n_max and beta must be at least 1, got {n_max} and {beta}")
        super().__init__()
        self.n_max = n_max
        self.lazy = lazy
        self.beta = beta
        self._b = bytearray()
        self._kx = bytearray()
        self._ord = bytearray()
        self._prev_a = -1  # A[0] = -1 makes the father of position 1 zero
        # block columns by block id; source and removed are kept in lazy mode
        self._value = array("q")
        self._source = array("q")  # block of sf(value), -1 if none
        self._removed = array("q")  # X(value), 0 if none
        self._start = array("q")  # run of chain words in _words
        self._len = bytearray()
        self._occ1 = array("Q")  # bit c: a class-c chain word; bit 0: ready
        self._occ2 = array("Q")  # bit c: two class-c chain words
        self._words = array("q")  # value << 1 | member of S(block value)
        # per class: block ids in creation order, and window l's first index
        self._ids = [array("q") for _ in range(CLASSES)]
        self._heads = [array("q") for _ in range(CLASSES)]
        self._window_fill_max = 0
        # lazy: class g copies ids[g][copy_head[g]:wait_head[g]], the rest
        # waits; copied[g] words of the copy head are done
        self._deadline = array("q")
        self._copy_head = [0] * CLASSES
        self._wait_head = [0] * CLASSES
        self._copied = [0] * CLASSES
        self._marked = 0  # bit g: class g's window ended with blocks waiting
        self._busy = 0  # bit g: class g's copy list is non-empty
        self._chase_max = 0

    def _sf_block(self, u: int) -> int:
        """Block of sf(u), through u's own record (b[u] > 0)."""
        alpha = self._b[u - 1]
        return self._ids[alpha][self._heads[alpha][u >> alpha] + self._ord[u - 1]]

    def _find_word(self, blk: int, a: int) -> int:
        """Index in _words of a in the ready block's chain, or -1: the first
        class-bitlen(a) word's rank counts the higher classes' mask bits."""
        c = a.bit_length()
        o1 = self._occ1[blk]
        if not o1 >> c & 1:
            return -1
        o2 = self._occ2[blk]
        i = self._start[blk] + (o1 >> c + 1).bit_count() + (o2 >> c + 1).bit_count()
        if self._words[i] >> 1 == a:
            return i
        if o2 >> c & 1 and self._words[i + 1] >> 1 == a:
            return i + 1
        return -1

    def _walk(self, u: int, a: int = -1, removed: int = 0, last: int = -1) -> tuple[int, int, int, int]:
        """Walk chain(u) = [sf(u), sf(sf(u)), ...] through unfilled blocks,
        taking each one's removal, to the first level that is ``last``,
        whose value or removal is ``a``, that ends the chain (value 0, block
        -1) or whose block is filled.  Notes the chase length t; returns
        (t, value, removal, block)."""
        if not self._b[u - 1]:
            return 0, 0, removed, -1
        values, occ1 = self._value, self._occ1
        blk = self._sf_block(u)
        value = values[blk]
        t = 0
        while blk >= 0 and t != last and a != value and a != removed and not occ1[blk] & 1:
            removed = self._removed[blk]
            blk = self._source[blk]
            value = values[blk] if blk >= 0 else 0
            t += 1
            if t > CHASE_CAP:
                raise AssertionError("in-flight chase exceeded its constant bound")
        if t > self._chase_max:
            self._chase_max = t
        return t, value, removed, blk

    def _chain_find(self, u: int, a: int) -> int:
        """1-based index of a in chain(u) if a is in S(u), else 0."""
        t, value, removed, blk = self._walk(u, a, self._x_value(u))
        if a == removed or value == 0:
            return 0
        if a == value:
            return t + 1
        i = self._find_word(blk, a)
        return t + 2 + i - self._start[blk] if i >= 0 and self._words[i] & 1 else 0

    def _chain_select(self, u: int, r: int) -> int:
        """r-th element (1-based) of chain(u)."""
        t, value, _, blk = self._walk(u, last=r - 1)
        if t == r - 1:
            return value
        if blk < 0 or r - 2 - t >= self._len[blk]:
            raise AssertionError(f"chain of {u} is shorter than {r}")
        return self._words[self._start[blk] + r - 2 - t] >> 1

    def _x_value(self, u: int) -> int:
        """X(u): the candidate removed going from sf(u)'s set to u's set."""
        k = self._kx[u - 1]
        return self._chain_select(u, k) if k else 0

    def _ensure_block(self, value: int, pos: int) -> int:
        """Find or create the block for ``value`` in the window of ``pos``;
        returns its ordinal within the group, the tail of ids[alpha]."""
        alpha = value.bit_length()
        window = pos >> alpha
        ids, heads = self._ids[alpha], self._heads[alpha]
        count = len(ids)
        if window < len(heads):
            first = heads[window]
            for k in range(first, count):  # <= 48 values, constant scan
                if self._value[ids[k]] == value:
                    return k - first
            if count - first >= WINDOW_CAP:
                raise CapacityViolation(f"window (alpha={alpha}, l={window}) already holds {WINDOW_CAP} values")
        else:  # also heads the empty windows since the class's last block
            heads.extend((count,) * (window + 1 - len(heads)))
            first = count
        if count - first >= self._window_fill_max:
            self._window_fill_max = count - first + 1

        blk = len(self._value)
        if self._b[value - 1]:
            source = self._sf_block(value)
            length = 1 + self._len[source]
        else:
            source, length = -1, 0
        removed = self._x_value(value)
        words = self._words
        self._value.append(value)
        self._start.append(len(words))
        self._len.append(length)
        self._occ1.append(0)
        self._occ2.append(0)
        ids.append(blk)  # lazy: onto the waiting list
        if self.lazy:
            self._source.append(source)
            self._removed.append(removed)
            self._deadline.append((window + 2) << alpha)
            words.frombytes(bytes(8 * length))  # the run, reserved
        else:
            if length:  # the source value, then the source's run
                words.append(self._value[source] << 1 | 1)
                if length > 1:
                    s = self._start[source]
                    words.extend(words[s : s + length - 1])
            self._seal(blk, source, removed)
        return count - first

    def _seal(self, blk: int, source: int, removed: int) -> None:
        """Mark blk ready once its run is copied: the source's class masks
        plus the source value's class, and X(value)'s flag cleared."""
        if source < 0:
            self._occ1[blk] = 1
            return
        o1, o2 = self._occ1[source], self._occ2[source]
        bit = 1 << self._value[source].bit_length()
        assert not o2 & bit, "a third chain word in one bit-length class"
        self._occ1[blk] = o1 | bit  # bit 0 comes with it: the source is ready
        self._occ2[blk] = o2 | o1 & bit
        i = self._find_word(blk, removed) if removed else -1
        if i >= 0:
            self._words[i] &= ~1

    def _fill(self, gamma: int, budget: int) -> int:
        """Copy up to ``budget`` words into the run of class gamma's copy
        head (word 0 the source value, then the source's run); seal and pop
        it once complete.  Returns the budget left."""
        c = self._copy_head[gamma]
        blk = self._ids[gamma][c]
        length = self._len[blk]
        done = self._copied[gamma]
        left = length - done
        source = self._source[blk]
        if length:
            # the source is recorded at its value v < 2^gamma, created earlier
            # in a class no larger, so the lowest-class-first order filled it
            assert self._occ1[source] & 1, "source block not filled"
            words = self._words
            start = self._start[blk]
            end = done + budget if budget < left else length
            if done == 0:
                words[start] = self._value[source] << 1 | 1
                done = 1
            if done < end:
                s = self._start[source] - 1
                words[start + done : start + end] = words[s + done : s + end]
            if budget < left:
                self._copied[gamma] = end
                return 0
            self._copied[gamma] = 0
        self._seal(blk, source, self._removed[blk])
        self._copy_head[gamma] = c + 1
        if c + 1 == self._wait_head[gamma]:
            self._busy &= ~(1 << gamma)
        return budget - (left or 1)  # an empty chain costs one step

    def _scheduler_tick(self, pos: int) -> None:
        """Mark window boundaries, check deadlines, spend the copy budget.

        Class g's deadlines are multiples of 2^g and do not decrease along
        ids[g], so checking its first pending block only where a class-g
        window ends finds a miss at the first position that misses one.
        The budget goes to the lowest class with a copy list or a mark; a
        marked class first moves its waiting list onto its copy list."""
        p, gamma = pos, 1
        while not p & 1:
            ids, c = self._ids[gamma], self._copy_head[gamma]
            if self._wait_head[gamma] < len(ids):
                self._marked |= 1 << gamma
            if c < len(ids) and self._deadline[ids[c]] <= pos:
                raise AssertionError(f"copy deadline missed at position {pos}")
            p >>= 1
            gamma += 1
        budget = self.beta
        while budget > 0 and (self._busy or self._marked):
            pending = self._busy | self._marked
            gamma = (pending & -pending).bit_length() - 1
            if self._marked >> gamma & 1:
                self._wait_head[gamma] = len(self._ids[gamma])
                self._marked &= ~(1 << gamma)
                self._busy |= 1 << gamma
            budget = self._fill(gamma, budget)

    def finish(self) -> None:
        """Drain pending copies (lazy mode), lowest class first; deadlines
        no longer apply."""
        if self.lazy:
            for gamma, ids in enumerate(self._ids):
                self._wait_head[gamma] = len(ids)
                while self._copy_head[gamma] < len(ids):
                    self._fill(gamma, 1 << 30)
            self._marked = self._busy = 0

    def push(self, a: int) -> Verdict:
        return self.push_many((a,))

    def push_many(self, values) -> Verdict:
        if self.failed_at is not None:
            raise PushAfterFailure(f"stream failed at {self.failed_at}")
        b_list, kx_list, ord_list = self._b, self._kx, self._ord
        letters, alphs = self._letter, self._alph
        chain_find, sf_block, ensure_block = self._chain_find, self._sf_block, self._ensure_block
        block_value = self._value
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
                kx, sf = kx_list[f - 1], block_value[sf_block(f)] if b_list[f - 1] else 0

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

        used_blocks = sum(len(cls) * _block_bits(alpha) for alpha, cls in enumerate(self._ids))
        allocated_blocks = 0
        for alpha in range(1, max(1, n.bit_length()) + 1):
            windows = (n >> alpha) + 1
            allocated_blocks += WINDOW_CAP * windows * _block_bits(alpha)

        sched_entries = sum(len(cls) - c for cls, c in zip(self._ids, self._copy_head)) if self.lazy else 0
        scheduler = sched_entries * (nm.bit_length() + 12) + 2 * nm.bit_length()
        return {
            "memory_bits": per_position + used_blocks + scheduler + 4 * nm.bit_length(),
            "memory_bits_allocated": per_position + allocated_blocks,
            "blocks_created": len(self._value),
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
