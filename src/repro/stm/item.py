"""Timestamped items stored in STM channels."""

from __future__ import annotations

from typing import AbstractSet, Any

__all__ = ["Item"]


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
