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
    gotten" wildcard.

    Only :meth:`~repro.stm.channel.STMChannel.put` makes items: it
    validates what it stores and fills the slots (``timestamp``,
    ``value``, ``size``, ``put_time``, ``seen``) itself, so the class has
    no ``__init__`` — its call would be a Python call every put.
    """

    __slots__ = ("timestamp", "value", "size", "put_time", "seen")

    timestamp: int
    value: Any
    size: int
    put_time: float
    seen: bool

    def __repr__(self) -> str:
        return f"Item(ts={self.timestamp}, size={self.size}, seen={self.seen})"
