"""All-pairs temporal join: the brute-force oracle of the merge join."""

from __future__ import annotations

from typing import List, Sequence

from repro.core.runtime.stream import Event
from repro.spe.common.operators import MergeJoinOperator

__all__ = ["NestedLoopJoinOperator"]


class NestedLoopJoinOperator(MergeJoinOperator):
    """Temporal join with an all-pairs scan (the StreamBox-style O(n²) join).

    Identical results to :class:`MergeJoinOperator`, but it compares every
    new event against *every* buffered event of the other side without
    exploiting event order, and evicts only lazily.
    """

    #: evict only when the buffer exceeds this many events (lazy eviction)
    EVICTION_THRESHOLD = 4096

    def _process(self, events: Sequence[Event], left_side: bool) -> List[Event]:
        st = self._state
        out: List[Event] = []
        own = st.left if left_side else st.right
        other = st.right if left_side else st.left
        for e in events:
            if left_side:
                st.left_wm = max(st.left_wm, e.start)
            else:
                st.right_wm = max(st.right_wm, e.start)
            for o in other:  # no ordering assumptions: full scan
                pair = (e, o) if left_side else (o, e)
                window = st.overlap(*pair)
                if window is None:
                    continue
                value, ok = st.payload(*pair)
                if ok:
                    out.append(Event(window[0], window[1], value))
            own.append(e)
        if len(st.left) + len(st.right) > self.EVICTION_THRESHOLD:
            st.evict()
        out.sort(key=lambda ev: (ev.start, ev.end))
        return out
