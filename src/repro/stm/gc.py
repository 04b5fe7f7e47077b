"""Garbage collection for STM channels.

The paper (§3.3) lists GC simplification as a benefit of fixed schedules:
"a fixed schedule ... simplifies garbage collection (handled in our system
by STM) resulting in further performance gains."  The collector here is the
general mechanism: an item dies once every attached input connection has
consumed it (directly, or implicitly by consuming a later timestamp).

Collection is explicit — the runtimes call :func:`collect_channel` at put
boundaries — so tests can observe live-item high-water marks, which is the
"reduced space requirement" measurement in the experiments.
"""

from __future__ import annotations

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
        self.high_water_items = max(self.high_water_items, len(channel))
        self.high_water_bytes = max(self.high_water_bytes, channel.live_bytes())


def collect_channel(channel: STMChannel, stats: GCStats | None = None) -> int:
    """Reclaim every fully-consumed item in ``channel``.

    Returns the number of items collected.  Updates ``stats`` (including
    the pre-collection high-water mark) when provided.
    """
    if stats is not None:
        stats.observe(channel)
        stats.calls += 1
    n = 0
    freed = 0
    for ts in channel.collectible():
        item = channel._remove(ts)
        freed += item.size
        n += 1
    if stats is not None:
        stats.collected += n
        stats.bytes_freed += freed
    return n

