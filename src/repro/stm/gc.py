"""Garbage collection for STM channels.

The paper (§3.3) lists GC simplification as a benefit of fixed schedules:
"a fixed schedule ... simplifies garbage collection (handled in our system
by STM) resulting in further performance gains."  The collector here is the
general mechanism: an item dies once every attached input connection has
consumed it (directly, or implicitly by consuming a later timestamp) —
that is, once its timestamp is below the channel's watermark, the least
virtual time over its attached inputs.  A collection pops that prefix of
the live timestamps, at a cost in the items it frees.

Collection is explicit — every substrate calls :func:`collect_channel`
after each consume (the simulator's ``ChannelHub``, ``ThreadedChannel`` and
the process broker alike) — so tests can observe live-item high-water
marks, which is the "reduced space requirement" measurement in the
experiments.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.stm.channel import STMChannel

__all__ = ["GCStats", "collect_channel"]


@dataclass
class GCStats:
    """Cumulative collector statistics across calls."""

    collected: int = 0
    bytes_freed: int = 0
    calls: int = 0
    high_water_items: int = 0
    high_water_bytes: int = 0

    def observe(self, channel: STMChannel) -> None:
        """Record the channel's live footprint before collection."""
        live = len(channel._order)
        if live > self.high_water_items:
            self.high_water_items = live
        if channel._live_bytes > self.high_water_bytes:
            self.high_water_bytes = channel._live_bytes


def collect_channel(channel: STMChannel, stats: GCStats | None = None) -> int:
    """Reclaim every fully-consumed item in ``channel``.

    Returns the number of items collected.  Updates ``stats`` (including
    the pre-collection high-water mark) when provided.
    """
    if stats is not None:
        stats.observe(channel)
        stats.calls += 1
    order = channel._order
    low = channel.watermark()
    if low is None or not order or order[0] >= low:
        return 0
    # The collectible items are the prefix of the live timestamps below
    # the watermark: pop it, at a cost in the items freed.
    cut = bisect_left(order, low)
    items = channel._items
    freed = 0
    for ts in order[:cut]:
        freed += items.pop(ts).size
    del order[:cut]
    channel._live_bytes -= freed
    channel.total_collected += cut
    if stats is not None:
        stats.collected += cut
        stats.bytes_freed += freed
    return cut
