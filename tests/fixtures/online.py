"""Online (streaming) sliding-window aggregators: the windowing oracle.

These are the incremental algorithms referenced by the paper's aggregation
template (Section 6.1.2) and by the sliding-window aggregation literature it
cites:

* :class:`SubtractOnEvict` — O(1) insert/evict for invertible aggregates
  (those providing a ``deacc``), e.g. Sum, Count, Mean, Variance.
* :class:`TwoStacksAggregator` — amortized O(1) insert/evict for *any*
  associative aggregate (Max, Min, custom), using the classic two-stack
  queue construction.
* :class:`RecomputeAggregator` — the O(window) strawman that re-folds the
  whole window on every query; the semantic reference of the other two.

All three expose the same interface (``insert``, ``evict``, ``query``).  The
engine evaluates windows with vectorized range indexes instead
(``repro.windowing.sliding.build_range_index``); the tests check those
indexes, window by window, against these aggregators.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.windowing.functions import AggregateFunction

__all__ = ["SubtractOnEvict", "TwoStacksAggregator", "RecomputeAggregator", "make_online_aggregator"]


class SubtractOnEvict:
    """Incremental window aggregation for invertible aggregates."""

    def __init__(self, agg: AggregateFunction):
        if not agg.invertible:
            raise ValueError(f"aggregate {agg.name!r} is not invertible")
        self.agg = agg
        self._state = agg.init()
        self._count = 0

    def insert(self, value: float) -> None:
        """Add a value to the window."""
        self._state = self.agg.acc(self._state, value)
        self._count += 1

    def evict(self, value: float) -> None:
        """Remove a previously inserted value from the window."""
        self._state = self.agg.deacc(self._state, value)  # type: ignore[misc]
        self._count -= 1

    def query(self) -> Tuple[float, bool]:
        """Current aggregate; φ when the window is empty."""
        if self._count <= 0:
            return (0.0, False)
        return (float(self.agg.result(self._state)), True)

    def __len__(self) -> int:
        return self._count


class TwoStacksAggregator:
    """Amortized O(1) window aggregation for arbitrary associative aggregates.

    Maintains a FIFO window as two stacks.  The *back* stack receives
    insertions; the *front* stack serves evictions and stores, alongside each
    value, the running aggregate of everything at or below it.  When the front
    stack empties, the back stack is flipped onto it (the amortized step).
    """

    def __init__(self, agg: AggregateFunction):
        self.agg = agg
        self._front: List[Tuple[float, float]] = []  # (value, running aggregate result)
        self._front_states: List = []
        self._back: List[float] = []
        self._back_state = agg.init()
        self._back_count = 0

    def insert(self, value: float) -> None:
        """Append a value at the back of the window."""
        self._back.append(value)
        self._back_state = self.agg.acc(self._back_state, value)
        self._back_count += 1

    def evict(self, value: Optional[float] = None) -> None:
        """Remove the oldest value from the window.

        The ``value`` argument is accepted (and ignored) so that the three
        online aggregators share the same call signature.
        """
        if not self._front:
            self._flip()
        if not self._front:
            raise IndexError("evict from an empty window")
        self._front.pop()
        self._front_states.pop()

    def query(self) -> Tuple[float, bool]:
        """Current aggregate of the whole window; φ when empty."""
        has_front = bool(self._front)
        has_back = self._back_count > 0
        if not has_front and not has_back:
            return (0.0, False)
        if has_front and has_back and self.agg.mergeable:
            merged = self.agg.merge(self._front_states[-1], self._back_state)  # type: ignore[misc]
            return (float(self.agg.result(merged)), True)
        if has_front and not has_back:
            return (float(self.agg.result(self._front_states[-1])), True)
        if has_back and not has_front:
            return (float(self.agg.result(self._back_state)), True)
        # no merge available: fall back to re-accumulating front state over back values
        state = self._front_states[-1]
        for v in self._back:
            state = self.agg.acc(state, v)
        return (float(self.agg.result(state)), True)

    def __len__(self) -> int:
        return len(self._front) + self._back_count

    def _flip(self) -> None:
        state = self.agg.init()
        while self._back:
            v = self._back.pop()
            state = self.agg.acc(state, v)
            self._front.append((v, 0.0))
            self._front_states.append(state)
        self._back_state = self.agg.init()
        self._back_count = 0


class RecomputeAggregator:
    """O(window) reference aggregator that re-folds the window on every query."""

    def __init__(self, agg: AggregateFunction):
        self.agg = agg
        self._window: Deque[float] = deque()

    def insert(self, value: float) -> None:
        self._window.append(value)

    def evict(self, value: Optional[float] = None) -> None:
        self._window.popleft()

    def query(self) -> Tuple[float, bool]:
        return self.agg.fold(self._window)

    def __len__(self) -> int:
        return len(self._window)


def make_online_aggregator(agg: AggregateFunction):
    """Pick the best online aggregator available for ``agg``.

    Subtract-on-Evict for invertible aggregates, two-stacks for mergeable
    ones, and full recomputation otherwise — the escalation of the paper's
    aggregation template.
    """
    if agg.invertible:
        return SubtractOnEvict(agg)
    if agg.mergeable:
        return TwoStacksAggregator(agg)
    return RecomputeAggregator(agg)
