"""Timestamped items stored in STM channels."""

from __future__ import annotations

from typing import Any

__all__ = ["Item"]


class Item:
    """One object in a channel, indexed by its integer timestamp.

    An item records no consumption: it is consumed by an input connection
    iff its timestamp is below that connection's virtual time, and
    collectible once it is below every attached input's.  ``seen`` is set
    when the item is gotten over any connection, or when an input
    connection that had consumed it detaches; together with the attached
    inputs' virtual times it drives the "newest value not previously
    gotten" wildcard.  The channel validates what it stores.
    """

    __slots__ = ("timestamp", "value", "size", "put_time", "seen")

    def __init__(self, timestamp: int, value: Any, size: int = 0, put_time: float = 0.0):
        self.timestamp = timestamp
        self.value = value
        self.size = size
        self.put_time = put_time
        self.seen = False

    def __repr__(self) -> str:
        return f"Item(ts={self.timestamp}, size={self.size}, seen={self.seen})"
