"""Connections: the attach/detach handles of the STM API.

A task "names the various channels it touches and designates them as input
or output channels (from the perspective of this task)".  A
:class:`Connection` is one such designation.  Input connections carry a
*virtual time*: every timestamp strictly below it is dead to the
connection.  It is the channel's only record of consumption — an item is
consumed by an input connection iff its timestamp is below that
connection's virtual time — so garbage collection is safe below the least
virtual time of a channel's attached inputs (see :mod:`repro.stm.gc`).
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.stm.channel import STMChannel

__all__ = ["Direction", "Connection"]

_conn_ids = itertools.count(1)


class Direction(enum.Enum):
    """Whether a connection reads from or writes to its channel."""

    INPUT = "input"
    OUTPUT = "output"


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
        consumed.  Starts at 0 (nothing consumed); only the channel's
        ``consume`` advances it.
    last_gotten:
        Timestamp of the most recent item retrieved over this connection
        (None before the first get) — supports rate-decoupled consumers
        that "restrict processing to only the most recent data".
    reads / writes:
        The channel this connection reads from (an input) or writes to (an
        output) while it is attached, else None — what the channel's
        operations check the connection against, one attribute each.
    """

    __slots__ = ("conn_id", "task", "direction", "virtual_time", "last_gotten",
                 "reads", "writes")

    def __init__(self, task: str, direction: Direction, channel: "STMChannel") -> None:
        self.conn_id: int = next(_conn_ids)
        self.task = task
        self.direction = direction
        self.virtual_time: int = 0
        self.last_gotten: Optional[int] = None
        self.reads = channel if direction is Direction.INPUT else None
        self.writes = channel if direction is Direction.OUTPUT else None

    @property
    def is_input(self) -> bool:
        return self.direction is Direction.INPUT

    @property
    def is_output(self) -> bool:
        return self.direction is Direction.OUTPUT

    @property
    def attached(self) -> bool:
        return self.reads is not None or self.writes is not None

    def __repr__(self) -> str:
        return (
            f"Connection(id={self.conn_id}, task={self.task!r}, "
            f"{self.direction.value}, vt={self.virtual_time})"
        )
