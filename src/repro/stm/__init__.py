"""Space-Time Memory (STM): timestamp-indexed channels.

STM is the Stampede runtime's "structured shared-memory abstraction ...
a location-transparent collection of objects indexed by time" (paper
appendix, Figures 7-8).  This package implements the full API:

* :mod:`repro.stm.item` — timestamped items and their per-connection
  consumption bookkeeping.
* :mod:`repro.stm.connection` — attach/detach handles with direction and
  per-connection virtual time.
* :mod:`repro.stm.channel` — the channel itself: ``put``, ``get`` with
  timestamp wildcards (newest / oldest / newest-unseen / exact), and
  ``consume``; misses report neighbouring timestamps exactly like
  ``spd_channel_get_item``'s ``ts_range``.
* :mod:`repro.stm.gc` — reference-count garbage collection: an item is
  reclaimed once every attached input connection has consumed it or moved
  its virtual time past it.
* :mod:`repro.stm.threaded` — a thread-safe blocking wrapper used by the
  live (real-thread) runtime, by the process runtime's workers for the
  channels scheduled entirely on their node, and by the examples.
* :mod:`repro.stm.process` — the cross-process transport, for the edges
  that cross nodes: a parent-side
  :class:`~repro.stm.process.ChannelBroker` owning real channels, and the
  broker serves one op (the *step*); :class:`~repro.stm.process.StepBatch`
  issues it, from a worker over a :class:`~repro.stm.process.WorkerLink`
  or from the parent's collectors — a collector is a sink task — over a
  :class:`~repro.stm.process.LocalLink`; a shared-memory ring carries
  array payloads.
"""

from repro.stm.item import Item
from repro.stm.connection import Connection, Direction
from repro.stm.channel import STMChannel, TS, NEWEST, OLDEST, NEWEST_UNSEEN
from repro.stm.gc import collect_channel, GCStats
from repro.stm.threaded import ThreadedChannel, ChannelPoisoned
from repro.stm.process import (
    BrokerDied,
    ChannelBroker,
    ShmRing,
    WorkerLink,
)

__all__ = [
    "Item",
    "Connection",
    "Direction",
    "STMChannel",
    "TS",
    "NEWEST",
    "OLDEST",
    "NEWEST_UNSEEN",
    "collect_channel",
    "GCStats",
    "ThreadedChannel",
    "ChannelPoisoned",
    "BrokerDied",
    "ChannelBroker",
    "ShmRing",
    "WorkerLink",
]
