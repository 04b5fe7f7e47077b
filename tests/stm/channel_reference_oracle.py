"""Frozen STM channel: the oracle the watermark channel must match.

These are ``Connection``, ``Item``, ``STMChannel``, ``GCStats`` and
``collect_channel`` as they stood while consumption was recorded per item:
every item held the set of input connections that consumed it and the set
that got it, ``consume`` re-marked every older item, and the collector
rescanned every live item with a set-subset test.  They are kept verbatim,
only gathered into one module (the wildcards and ``Direction`` are the live
``repro.stm`` ones, so both channels accept the same arguments);
``tests/stm/test_channel_oracle.py`` drives both with the same operations.
Do not edit them.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import AbstractSet, Any, Optional

from repro.errors import (
    ChannelClosed,
    ConnectionError_,
    DuplicateTimestamp,
    ItemConsumed,
    ItemUnavailable,
    STMError,
)
from repro.stm.channel import TS, Timestamp
from repro.stm.connection import Direction

__all__ = ["Connection", "Item", "STMChannel", "GCStats", "collect_channel"]

_conn_ids = itertools.count(1)


class Connection:
    """A task's attachment to a channel.

    Attributes
    ----------
    conn_id:
        Process-unique integer identity.
    task:
        Name of the owning task (informational; used in traces).
    direction:
        :class:`Direction` of data flow from the task's perspective.
    virtual_time:
        For input connections: all timestamps strictly below this value are
        guaranteed consumed.  Starts at 0 (nothing consumed).
    last_gotten:
        Timestamp of the most recent item retrieved over this connection
        (None before the first get) — supports rate-decoupled consumers
        that "restrict processing to only the most recent data".
    """

    __slots__ = ("conn_id", "task", "direction", "virtual_time", "last_gotten", "attached")

    def __init__(self, task: str, direction: Direction) -> None:
        self.conn_id: int = next(_conn_ids)
        self.task = task
        self.direction = direction
        self.virtual_time: int = 0
        self.last_gotten: Optional[int] = None
        self.attached = True

    @property
    def is_input(self) -> bool:
        return self.direction is Direction.INPUT

    @property
    def is_output(self) -> bool:
        return self.direction is Direction.OUTPUT

    def require_attached(self) -> None:
        """Raise if the connection has been detached."""
        if not self.attached:
            raise ConnectionError_(
                f"connection {self.conn_id} of task {self.task!r} is detached"
            )

    def require_input(self) -> None:
        """Raise unless this is an attached input connection."""
        self.require_attached()
        if not self.is_input:
            raise ConnectionError_(
                f"task {self.task!r} tried to read over an output connection"
            )

    def require_output(self) -> None:
        """Raise unless this is an attached output connection."""
        self.require_attached()
        if not self.is_output:
            raise ConnectionError_(
                f"task {self.task!r} tried to write over an input connection"
            )

    def advance_virtual_time(self, ts: int) -> None:
        """Declare all timestamps < ``ts`` consumed (monotone)."""
        if ts > self.virtual_time:
            self.virtual_time = ts

    def __repr__(self) -> str:
        return (
            f"Connection(id={self.conn_id}, task={self.task!r}, "
            f"{self.direction.value}, vt={self.virtual_time})"
        )


class Item:
    """One object in a channel, indexed by its integer timestamp.

    Consumption is tracked per input connection (by connection id): once
    every attached input connection has consumed an item, the garbage
    collector may reclaim it.  ``gotten_by`` records which connections have
    *seen* the item (a ``get`` without ``consume``), which drives the
    "newest value not previously gotten" wildcard.
    """

    __slots__ = ("timestamp", "value", "size", "put_time", "consumed_by", "gotten_by")

    def __init__(self, timestamp: int, value: Any, size: int = 0, put_time: float = 0.0):
        if not isinstance(timestamp, int):
            raise TypeError(f"timestamps are integers, got {timestamp!r}")
        if size < 0:
            raise ValueError(f"item size must be >= 0, got {size}")
        self.timestamp = timestamp
        self.value = value
        self.size = size
        self.put_time = put_time
        self.consumed_by: set[int] = set()
        self.gotten_by: set[int] = set()

    def mark_gotten(self, conn_id: int) -> None:
        """Record that connection ``conn_id`` has retrieved this item."""
        self.gotten_by.add(conn_id)

    def mark_consumed(self, conn_id: int) -> None:
        """Record that connection ``conn_id`` is finished with this item."""
        self.consumed_by.add(conn_id)
        self.gotten_by.add(conn_id)

    def fully_consumed(self, input_conn_ids: AbstractSet[int]) -> bool:
        """True once every listed input connection has consumed the item."""
        return input_conn_ids <= self.consumed_by

    def __repr__(self) -> str:
        return (
            f"Item(ts={self.timestamp}, size={self.size}, "
            f"consumed_by={sorted(self.consumed_by)})"
        )


class STMChannel:
    """One Space-Time Memory channel.

    Parameters
    ----------
    name:
        Channel name (unique within a registry).
    capacity:
        Optional bound on live (un-collected) items; puts beyond it raise
        ``ChannelClosed``-distinct ``STMError`` in the synchronous API and
        block in the runtime wrappers.  ``None`` = unbounded.
    """

    def __init__(self, name: str, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise STMError(f"channel {name!r}: capacity must be >= 1 or None")
        self.name = name
        self.capacity = capacity
        self._items: dict[int, Item] = {}
        self._order: list[int] = []  # sorted timestamps present
        self._connections: dict[int, Connection] = {}
        # The attached input connections by id, kept by attach / detach:
        # whose consumption an item waits for.
        self._inputs: dict[int, Connection] = {}
        self._live_bytes = 0
        self._closed = False
        self.total_puts = 0
        self.total_gets = 0
        self.total_consumed = 0
        self.total_collected = 0

    # -- attachment -----------------------------------------------------------

    def attach(self, task: str, direction: Direction) -> Connection:
        """Create a new connection for ``task`` in the given direction."""
        conn = Connection(task, direction)
        self._connections[conn.conn_id] = conn
        if conn.is_input:
            self._inputs[conn.conn_id] = conn
        return conn

    def attach_input(self, task: str) -> Connection:
        """Shorthand for :meth:`attach` with ``Direction.INPUT``."""
        return self.attach(task, Direction.INPUT)

    def attach_output(self, task: str) -> Connection:
        """Shorthand for :meth:`attach` with ``Direction.OUTPUT``."""
        return self.attach(task, Direction.OUTPUT)

    def detach(self, conn: Connection) -> None:
        """Remove a connection; its consumption obligations disappear."""
        if conn.conn_id not in self._connections:
            raise ConnectionError_(f"connection {conn.conn_id} not attached to {self.name!r}")
        del self._connections[conn.conn_id]
        self._inputs.pop(conn.conn_id, None)
        conn.attached = False

    def input_conn_ids(self) -> set[int]:
        """IDs of all currently attached input connections."""
        return set(self._inputs)

    @property
    def connections(self) -> list[Connection]:
        """All attached connections."""
        return list(self._connections.values())

    # -- closing ---------------------------------------------------------------

    def close(self) -> None:
        """Refuse all future puts (end-of-stream)."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # -- inspection --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def timestamps(self) -> list[int]:
        """Sorted timestamps of live items."""
        return list(self._order)

    def newest_timestamp(self) -> Optional[int]:
        """Largest live timestamp (None if empty)."""
        return self._order[-1] if self._order else None

    def oldest_timestamp(self) -> Optional[int]:
        """Smallest live timestamp (None if empty)."""
        return self._order[0] if self._order else None

    def holds(self, ts: int) -> bool:
        """True if an item with timestamp ``ts`` is live."""
        return ts in self._items

    @property
    def is_full(self) -> bool:
        """True if a put would exceed capacity right now."""
        return self.capacity is not None and len(self._order) >= self.capacity

    def neighbours(self, ts: int) -> tuple[Optional[int], Optional[int]]:
        """(nearest live ts below, nearest live ts above) — Figure 8's ts_range."""
        i = bisect_left(self._order, ts)
        below = self._order[i - 1] if i > 0 else None
        if i < len(self._order) and self._order[i] == ts:
            above = self._order[i + 1] if i + 1 < len(self._order) else None
        else:
            above = self._order[i] if i < len(self._order) else None
        return below, above

    # -- the API -----------------------------------------------------------------

    def put(
        self,
        conn: Connection,
        ts: int,
        value: Any,
        size: int = 0,
        time: float = 0.0,
    ) -> Item:
        """Insert an item.  Raises on duplicates, closed channel, or overflow."""
        conn.require_output()
        if self._closed:
            raise ChannelClosed(f"channel {self.name!r} is closed")
        if not isinstance(ts, int):
            raise STMError(f"put needs an integer timestamp, got {ts!r}")
        if ts in self._items:
            raise DuplicateTimestamp(f"channel {self.name!r} already holds ts={ts}")
        if self.is_full:
            raise STMError(
                f"channel {self.name!r} is full "
                f"({len(self._order)}/{self.capacity} items)"
            )
        item = Item(ts, value, size=size, put_time=time)
        # An input connection whose virtual time has passed ``ts`` already
        # declared this timestamp dead; the late item is born consumed for
        # it (otherwise it could never be garbage collected).
        for c in self._inputs.values():
            if c.virtual_time > ts:
                item.mark_consumed(c.conn_id)
        self._items[ts] = item
        insort(self._order, ts)
        self._live_bytes += size
        self.total_puts += 1
        return item

    def get(self, conn: Connection, ts: Timestamp) -> tuple[int, Any]:
        """Retrieve ``(timestamp, value)`` for an exact ts or a wildcard.

        Raises :class:`~repro.errors.ItemUnavailable` (with neighbour info)
        when nothing satisfies the request.  Getting does not remove the
        item — call :meth:`consume` when done with it.
        """
        conn.require_input()
        resolved = self._resolve(conn, ts)
        if resolved is None:
            if isinstance(ts, int):
                below, above = self.neighbours(ts)
                raise ItemUnavailable(ts, below, above)
            raise ItemUnavailable(None, self.oldest_timestamp(), self.newest_timestamp())
        item = self._items[resolved]
        item.mark_gotten(conn.conn_id)
        conn.last_gotten = resolved
        self.total_gets += 1
        return resolved, item.value

    def _resolve(self, conn: Connection, ts: Timestamp) -> Optional[int]:
        if isinstance(ts, int):
            if ts in self._items:
                if conn.conn_id in self._items[ts].consumed_by:
                    raise ItemConsumed(
                        f"task {conn.task!r} already consumed ts={ts} on {self.name!r}"
                    )
                return ts
            return None
        if not self._order:
            return None
        if ts is TS.NEWEST:
            # Items this connection already consumed are dead to it.
            for t in reversed(self._order):
                if conn.conn_id not in self._items[t].consumed_by:
                    return t
            return None
        if ts is TS.OLDEST:
            for t in self._order:
                if conn.conn_id not in self._items[t].consumed_by:
                    return t
            return None
        if ts is TS.NEWEST_UNSEEN:
            # Newest item never gotten over ANY connection (Figure 8's
            # "newest value not previously gotten over any connection").
            for t in reversed(self._order):
                if not self._items[t].gotten_by:
                    return t
            return None
        raise STMError(f"unknown timestamp wildcard {ts!r}")

    def consume(self, conn: Connection, ts: int) -> None:
        """Mark ``ts`` finished for this connection; advances virtual time.

        Consuming also releases every *older* item for this connection —
        a consumer that skipped frames (got only the newest) thereby frees
        the frames it skipped, which is how "a downstream task may restrict
        its processing to only the most recent data" avoids unbounded
        growth.
        """
        conn.require_input()
        if not isinstance(ts, int):
            raise STMError(f"consume needs an integer timestamp, got {ts!r}")
        item = self._items.get(ts)
        if item is not None:
            item.mark_consumed(conn.conn_id)
        # Everything at or below ts is dead to this connection.
        conn.advance_virtual_time(ts + 1)
        cutoff = bisect_right(self._order, ts)
        for t in self._order[:cutoff]:
            self._items[t].mark_consumed(conn.conn_id)
        self.total_consumed += 1

    # -- reclamation (used by repro.stm.gc) -----------------------------------------

    def _remove(self, ts: int) -> Item:
        item = self._items.pop(ts)
        i = bisect_left(self._order, ts)
        assert self._order[i] == ts
        del self._order[i]
        self._live_bytes -= item.size
        self.total_collected += 1
        return item

    def collectible(self) -> list[int]:
        """Timestamps whose items every input connection has consumed."""
        inputs = self._inputs.keys()
        if not inputs:
            return []
        return [ts for ts in self._order if self._items[ts].fully_consumed(inputs)]

    def live_bytes(self) -> int:
        """Total size of live items — the paper's 'space requirement'."""
        return self._live_bytes

    def stats(self) -> dict[str, int]:
        """Counters snapshot: puts/gets/consumed/collected."""
        return {
            "puts": self.total_puts,
            "gets": self.total_gets,
            "consumed": self.total_consumed,
            "collected": self.total_collected,
        }

    def __repr__(self) -> str:
        return (
            f"STMChannel({self.name!r}, live={len(self._order)}, "
            f"puts={self.total_puts}, collected={self.total_collected})"
        )


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
