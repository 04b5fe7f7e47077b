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
    Declares every timestamp up to ``ts`` dead for that connection by
    advancing its virtual time; GC reclaims items below every attached
    input's virtual time (see :mod:`repro.stm.gc`).

This class is a synchronous data structure — blocking behaviour belongs to
the runtimes (the simulator wraps it with events; the threaded runtime with
condition variables).

Consumption is recorded once, as each input connection's virtual time: an
item is consumed by a connection iff its timestamp is below that
connection's virtual time, so ``get``'s consumed check and the ``NEWEST`` /
``OLDEST`` skips are one integer compare (or one bisection), ``consume`` is
O(1), and the collectible items are the prefix of the live timestamps below
the channel's *watermark*, the least virtual time over the attached inputs
— the per-channel watermark :mod:`repro.analysis.model` proves the STM
protocol over.  ``attach`` / ``detach`` maintain the index of input
connections the watermark is taken over, and the live bytes are a running
total kept by ``put`` and the collector.  All three substrates share this
class.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
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

_new_item = object.__new__


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
        # the watermark is the least of their virtual times.
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
        conn = Connection(task, direction, self)
        self._connections[conn.conn_id] = conn
        if conn.reads is self:
            self._inputs[conn.conn_id] = conn
        return conn

    def attach_input(self, task: str) -> Connection:
        """Shorthand for :meth:`attach` with ``Direction.INPUT``."""
        return self.attach(task, Direction.INPUT)

    def attach_output(self, task: str) -> Connection:
        """Shorthand for :meth:`attach` with ``Direction.OUTPUT``."""
        return self.attach(task, Direction.OUTPUT)

    def detach(self, conn: Connection) -> None:
        """Remove a connection; its consumption obligations disappear.

        An input's virtual time leaves the watermark with it; the items it
        had consumed stay "seen" for ``NEWEST_UNSEEN``.
        """
        if self._connections.pop(conn.conn_id, None) is None:
            raise ConnectionError_(f"connection {conn.conn_id} not attached to {self.name!r}")
        if self._inputs.pop(conn.conn_id, None) is not None:
            for t in self._order[:bisect_left(self._order, conn.virtual_time)]:
                self._items[t].seen = True
        conn.reads = conn.writes = None

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

    def _refused(self, conn: Connection, reading: bool) -> ConnectionError_:
        """Why ``conn`` may not read (or write) here: the slow path of the
        one attribute test each operation makes."""
        if not conn.attached:
            return ConnectionError_(
                f"connection {conn.conn_id} of task {conn.task!r} is detached"
            )
        if conn.is_input != reading:
            return ConnectionError_(
                f"task {conn.task!r} tried to "
                f"{'read over an output' if reading else 'write over an input'} connection"
            )
        return ConnectionError_(
            f"connection {conn.conn_id} of task {conn.task!r} is not attached to {self.name!r}"
        )

    def put(
        self,
        conn: Connection,
        ts: int,
        value: Any,
        size: int = 0,
        time: float = 0.0,
    ) -> Item:
        """Insert an item.  Raises on duplicates, closed channel, or overflow.

        An item put below an input connection's virtual time is "born
        consumed" for it: that connection already declared the timestamp
        dead, so the item is hidden from it and collectible without it.
        """
        if conn.writes is not self:
            raise self._refused(conn, reading=False)
        if self._closed:
            raise ChannelClosed(f"channel {self.name!r} is closed")
        if type(ts) is not int or ts < 0:
            raise STMError(f"put needs a non-negative integer timestamp, got {ts!r}")
        if ts in self._items:
            raise DuplicateTimestamp(f"channel {self.name!r} already holds ts={ts}")
        if self.capacity is not None and len(self._order) >= self.capacity:
            # ``is_full``'s test, inlined: the substrate tested it before
            raise STMError(
                f"channel {self.name!r} is full "
                f"({len(self._order)}/{self.capacity} items)"
            )
        if size < 0:
            raise STMError(f"item size must be >= 0, got {size}")
        # An item built without a Python-level ``__init__`` (Item has none).
        self._items[ts] = item = _new_item(Item)
        item.timestamp = ts
        item.value = value
        item.size = size
        item.put_time = time
        item.seen = False
        insort(self._order, ts)
        self._live_bytes += size
        self.total_puts += 1
        return item

    def get(self, conn: Connection, ts: Timestamp) -> tuple[int, Any]:
        """Retrieve ``(timestamp, value)`` for an exact ts or a wildcard.

        Raises :class:`~repro.errors.ItemUnavailable` (with neighbour info)
        when nothing satisfies the request, and
        :class:`~repro.errors.ItemConsumed` for an exact ``ts`` below the
        connection's virtual time.  Getting does not remove the item — call
        :meth:`consume` when done with it.
        """
        if conn.reads is not self:
            raise self._refused(conn, reading=True)
        vt = conn.virtual_time
        order = self._order
        if type(ts) is int:
            if ts < 0:
                raise STMError(f"get needs a non-negative integer timestamp, got {ts!r}")
            item = self._items.get(ts)
            if item is None:
                raise ItemUnavailable(ts, *self.neighbours(ts))
            if ts < vt:
                raise ItemConsumed(
                    f"task {conn.task!r} already consumed ts={ts} on {self.name!r}"
                )
        else:
            # Items below the connection's virtual time are dead to it.
            if ts is TS.NEWEST:
                found = order[-1] if order and order[-1] >= vt else None
            elif ts is TS.OLDEST:
                i = bisect_left(order, vt)
                found = order[i] if i < len(order) else None
            elif ts is TS.NEWEST_UNSEEN:
                found = self._newest_unseen()
            else:
                raise STMError(
                    f"get needs a non-negative integer timestamp or a TS wildcard, got {ts!r}"
                )
            if found is None:
                raise ItemUnavailable(None, self.oldest_timestamp(), self.newest_timestamp())
            ts = found
            item = self._items[ts]
        item.seen = True
        conn.last_gotten = ts
        self.total_gets += 1
        return ts, item.value

    def _newest_unseen(self) -> Optional[int]:
        # Figure 8's "newest value not previously gotten over any
        # connection": an item is seen once gotten, or once consumed by any
        # input connection — below an attached one's virtual time (born
        # consumed included), or marked when one that had consumed it
        # detached.
        seen_below = max((c.virtual_time for c in self._inputs.values()), default=0)
        items = self._items
        for t in reversed(self._order):
            if t < seen_below:
                return None
            if not items[t].seen:
                return t
        return None

    def consume(self, conn: Connection, ts: int) -> None:
        """Declare every timestamp up to ``ts`` dead for this connection.

        Consuming advances the connection's virtual time past ``ts``, so it
        also releases every *older* item for this connection — a consumer
        that skipped frames (got only the newest) thereby frees the frames
        it skipped, which is how "a downstream task may restrict its
        processing to only the most recent data" avoids unbounded growth.
        """
        if conn.reads is not self:
            raise self._refused(conn, reading=True)
        if type(ts) is not int or ts < 0:
            raise STMError(f"consume needs a non-negative integer timestamp, got {ts!r}")
        if ts >= conn.virtual_time:
            conn.virtual_time = ts + 1
        self.total_consumed += 1

    # -- reclamation (used by repro.stm.gc) -----------------------------------------

    def watermark(self) -> Optional[int]:
        """Least virtual time over the attached inputs (None without any):
        every item below it is consumed by every input."""
        inputs = self._inputs
        if not inputs:
            return None
        if len(inputs) == 1:
            for c in inputs.values():
                return c.virtual_time
        return min(c.virtual_time for c in inputs.values())

    def collectible(self) -> list[int]:
        """Timestamps whose items every input connection has consumed:
        the prefix of the live timestamps below :meth:`watermark`."""
        low = self.watermark()
        if low is None:
            return []
        return self._order[:bisect_left(self._order, low)]

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
