"""Reuse/stack distance computation and histograms.

Stack distance (LRU stack processing, Mattson et al. [29]; Bennett &
Kruskal [7]) is the number of *unique* addresses referenced between
consecutive accesses to the same address. The STM and HRD baselines are
built on these profiles.

The scan uses a Fenwick (binary indexed) tree over access positions, the
standard O(n log n) formulation, so full SPEC-scale traces profile
quickly.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections import Counter
from itertools import accumulate
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

COLD = -1  # marker for an infinite (cold-miss) stack distance
_NO_ITEM = object()

# The Fenwick (binary indexed) trees below are plain lists indexed from 1;
# entry 0 is unused. Their walks are written out inline: the updates run
# hundreds of thousands of times per profile.


def stack_distances(items: Sequence[Hashable]) -> List[int]:
    """Per-access LRU stack distances; ``COLD`` (-1) marks first touches.

    A distance of 0 means the immediately-preceding unique item was the
    same item (back-to-back reuse).
    """
    size = len(items)
    tree = [0] * (size + 1)
    last_position: Dict[Hashable, int] = {}
    distances: List[int] = []
    append = distances.append
    last_item = _NO_ITEM
    for position, item in enumerate(items, 1):
        if item == last_item:
            # Back-to-back reuse: distance 0. The item's marker stays at
            # the start of its run; no other item's last access falls
            # inside the run, so no later count changes.
            append(0)
            continue
        last_item = item
        previous = last_position.get(item)
        if previous is None:
            append(COLD)
        else:
            # Number of distinct items touched strictly between the two
            # accesses: each distinct item contributes one marker at its
            # most recent position, so this is the sum over positions
            # previous+1 .. position-1, walked from both ends until the
            # two descents meet.
            high, low, between = position - 1, previous, 0
            while high > low:
                between += tree[high]
                high &= high - 1
            while low > high:
                between -= tree[low]
                low &= low - 1
            append(between)
            index = previous
            while index <= size:
                tree[index] -= 1
                index += index & -index
        index = position
        while index <= size:
            tree[index] += 1
            index += index & -index
        last_position[item] = position
    return distances


class LRUStack:
    """An LRU stack with O(log n) access, depth-selection and removal.

    Backed by a Fenwick tree over monotonically increasing time slots:
    the item in the highest occupied slot is the most-recently used.
    ``at_depth`` finds the k-th occupied slot with a single top-down
    descent of the tree (one probe per level, O(log n)) rather than a
    bisection over prefix sums. Used by HRD synthesis, where stack
    depths can reach the workload footprint (a plain list would make
    synthesis quadratic).
    """

    def __init__(self):
        self._slot_of: Dict[Hashable, int] = {}
        self._item_at: Dict[int, Hashable] = {}
        self._tree_size = 1024  # always a power of two, for the descent
        self._tree = [0] * (self._tree_size + 1)
        self._next_slot = 0

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._slot_of

    def _grow(self) -> None:
        size = self._tree_size * 2
        tree = [0] * (size + 1)
        for slot in self._item_at:
            tree[slot + 1] = 1
        # Linear-time build: push each node's total into its parent.
        for index in range(1, size + 1):
            parent = index + (index & -index)
            if parent <= size:
                tree[parent] += tree[index]
        self._tree = tree
        self._tree_size = size

    def access(self, item: Hashable) -> None:
        """Move ``item`` to the front (inserting it if absent)."""
        tree, size = self._tree, self._tree_size
        old_slot = self._slot_of.get(item)
        if old_slot is not None:
            if old_slot == self._next_slot - 1:
                return  # already the most recent: the order is unchanged
            del self._slot_of[item]
            del self._item_at[old_slot]
            index = old_slot + 1
            while index <= size:
                tree[index] -= 1
                index += index & -index
        slot = self._next_slot
        if slot >= size:
            self._grow()
            tree, size = self._tree, self._tree_size
        self._next_slot = slot + 1
        self._slot_of[item] = slot
        self._item_at[slot] = item
        index = slot + 1
        while index <= size:
            tree[index] += 1
            index += index & -index

    def remove(self, item: Hashable) -> None:
        slot = self._slot_of.pop(item)
        del self._item_at[slot]
        tree, size = self._tree, self._tree_size
        index = slot + 1
        while index <= size:
            tree[index] -= 1
            index += index & -index

    def depth_of(self, item: Hashable) -> int:
        """Depth of ``item``: 0 means most-recently used."""
        tree = self._tree
        index, occupied_up_to = self._slot_of[item] + 1, 0
        while index:
            occupied_up_to += tree[index]
            index &= index - 1
        return len(self._slot_of) - occupied_up_to

    def at_depth(self, depth: int) -> Hashable:
        """The item at ``depth`` (0 = most recent)."""
        if not 0 <= depth < len(self._slot_of):
            raise IndexError(f"depth {depth} out of range for stack of {len(self._slot_of)}")
        # The k-th occupied slot in ascending order, counting from the
        # top: descend from the root, stepping right past every subtree
        # whose count falls short of the remaining rank. ``position``
        # ends on the last 1-based index whose prefix sum is below the
        # rank, which is the 0-based slot holding it.
        rank = len(self._slot_of) - depth
        tree = self._tree
        position = 0
        step = self._tree_size >> 1
        while step:
            probe = position + step
            if tree[probe] < rank:
                position = probe
                rank -= tree[probe]
            step >>= 1
        return self._item_at[position]


class ReuseHistogram:
    """A discrete distribution of stack distances, including cold misses."""

    def __init__(self, counts: Optional[Counter] = None):
        self.counts: Counter = counts if counts is not None else Counter()
        # (sorted distances, cumulative weights), built on the first draw
        # and dropped by add(); counts must change only through add().
        self._draw_table: Optional[Tuple[List[int], List[int]]] = None

    @classmethod
    def fit(cls, distances: Sequence[int]) -> "ReuseHistogram":
        return cls(Counter(distances))

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def cold_count(self) -> int:
        return self.counts.get(COLD, 0)

    def cold_fraction(self) -> float:
        total = self.total
        return self.counts.get(COLD, 0) / total if total else 0.0

    def add(self, distance: int) -> None:
        self.counts[distance] += 1
        self._draw_table = None

    def sample(self, rng: random.Random) -> int:
        """Sample a distance (may return ``COLD``).

        Keys are sorted so sampling is invariant to insertion order
        (profiles must behave identically after serialization). The draw
        is exactly ``rng.choices(sorted keys, weights)``, with the keys
        and cumulative weights computed once rather than per draw.
        """
        table = self._draw_table
        if table is None:
            if not self.counts:
                return COLD
            keys = sorted(self.counts)
            cumulative = list(accumulate(self.counts[key] for key in keys))
            if cumulative[-1] <= 0:
                raise ValueError("Total of weights must be greater than zero")
            table = self._draw_table = (keys, cumulative)
        keys, cumulative = table
        return keys[bisect(cumulative, rng.random() * (cumulative[-1] + 0.0), 0, len(keys) - 1)]

    def clamped(self, max_rows: int) -> "ReuseHistogram":
        """Clamp finite distances into ``max_rows`` rows (STM uses 32).

        Distances >= max_rows are folded into the last row; COLD is kept.
        """
        if max_rows <= 0:
            raise ValueError(f"max_rows must be positive, got {max_rows}")
        folded: Counter = Counter()
        for distance, count in self.counts.items():
            if distance == COLD:
                folded[COLD] += count
            else:
                folded[min(distance, max_rows - 1)] += count
        return ReuseHistogram(folded)

    def to_dict(self) -> dict:
        return {"counts": sorted(self.counts.items())}

    @classmethod
    def from_dict(cls, data: dict) -> "ReuseHistogram":
        return cls(Counter(dict((int(k), int(v)) for k, v in data["counts"])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReuseHistogram):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReuseHistogram({self.total} samples, {self.cold_count} cold)"
