"""Space-Time Memory (STM): timestamp-indexed channels.

STM is the Stampede runtime's "structured shared-memory abstraction ...
a location-transparent collection of objects indexed by time" (paper
appendix, Figures 7-8).  This package implements the full API:

* :mod:`repro.stm.item` — timestamped items (value, size, put time and
  one "seen" flag; consumption is not recorded on items).
* :mod:`repro.stm.connection` — attach/detach handles with direction and
  per-connection virtual time, the one record of consumption: an item is
  consumed by an input connection iff its timestamp is below it.
* :mod:`repro.stm.channel` — the channel itself: ``put``, ``get`` with
  timestamp wildcards (newest / oldest / newest-unseen / exact), and
  ``consume``; misses report neighbouring timestamps exactly like
  ``spd_channel_get_item``'s ``ts_range``.
* :mod:`repro.stm.gc` — watermark garbage collection: an item is
  reclaimed once it is below every attached input connection's virtual
  time; :func:`~repro.stm.gc.collect_channel` pops that prefix, after
  every consume, on every substrate.
* :mod:`repro.stm.threaded` — a thread-safe blocking wrapper used by the
  live (real-thread) runtime, by the process runtime's workers for the
  channels scheduled entirely on their node, and by the examples.
* :mod:`repro.stm.process` — the cross-process transport, for the edges
  that cross nodes: a parent-side
  :class:`~repro.stm.process.ChannelBroker` owning real channels, and the
  broker serves one op (the *step*) in the parent's own loop;
  :class:`~repro.stm.process.StepBatch` issues it from a worker's lane on
  the lane's own pipe; a shared-memory ring carries array payloads.
"""
