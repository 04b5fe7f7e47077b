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
    """Cumulative collector statistics across calls; the high-water marks
    are the channel's live footprint before each collection."""

    collected: int = 0
    bytes_freed: int = 0
    calls: int = 0
    high_water_items: int = 0
    high_water_bytes: int = 0


def collect_channel(channel: STMChannel, stats: GCStats | None = None) -> int:
    """Reclaim every fully-consumed item in ``channel``.

    Returns the number of items collected.  Updates ``stats`` (including
    the pre-collection high-water mark) when provided.
    """
    order = channel._order
    if stats is not None:
        stats.calls += 1
        if len(order) > stats.high_water_items:
            stats.high_water_items = len(order)
        if channel._live_bytes > stats.high_water_bytes:
            stats.high_water_bytes = channel._live_bytes
    if not order:
        return 0
    # The watermark (:meth:`STMChannel.watermark`), taken in the loop that
    # stops at the first input still holding the oldest live item: with
    # one, nothing is collectible.
    oldest, low = order[0], None
    for conn in channel._inputs.values():
        vt = conn.virtual_time
        if vt <= oldest:
            return 0
        if low is None or vt < low:
            low = vt
    if low is None:
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
