"""The STM channel: a location-transparent collection indexed by time.

Implements both halves of Figure 8's API:

``put(conn, ts, value)``
    "a channel cannot have more than one item with the same timestamp, but
    the items can be put in any order".

``get(conn, ts)``
    ``ts`` "can specify a particular value or it can be a wildcard
    requesting the newest/oldest value currently in the channel, or the
    newest value not previously gotten over any connection".  A miss
    reports "the timestamps of the neighbouring available items" via
    :class:`~repro.errors.ItemUnavailable`.

``consume(conn, ts)``
    Declares the item dead for that connection; GC reclaims items consumed
    by every input connection (see :mod:`repro.stm.gc`).

This class is a synchronous data structure — blocking behaviour belongs to
the runtimes (the simulator wraps it with events; the threaded runtime with
condition variables).

Nothing is rebuilt or re-summed per operation: ``attach`` / ``detach``
maintain the index of input connections that ``put`` (born-consumed
marking) and ``collectible`` read, and the live bytes are a running total
kept by ``put`` and ``_remove``.  All three substrates share this class.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from typing import Any, Optional, Union

from repro.errors import (
    ChannelClosed,
    ConnectionError_,
    DuplicateTimestamp,
    ItemConsumed,
    ItemUnavailable,
    STMError,
)
from repro.stm.connection import Connection, Direction
from repro.stm.item import Item

__all__ = ["TS", "NEWEST", "OLDEST", "NEWEST_UNSEEN", "STMChannel"]


class TS(enum.Enum):
    """Timestamp wildcards accepted by :meth:`STMChannel.get`."""

    NEWEST = "newest"
    OLDEST = "oldest"
    NEWEST_UNSEEN = "newest_unseen"


NEWEST = TS.NEWEST
OLDEST = TS.OLDEST
NEWEST_UNSEEN = TS.NEWEST_UNSEEN

Timestamp = Union[int, TS]


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
