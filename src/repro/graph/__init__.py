"""Task-graph model: the paper's "macro-dataflow graph".

Figure 6 takes as input "the task graph for the application, a
macro-dataflow graph in which nodes represent high level operations that
produce and consume data items and edges represent communication among
producers and consumers", plus execution times for every operation and its
data-parallel variants.  This package is that input:

* :mod:`repro.graph.cost` — execution-time models as functions of the
  application :class:`~repro.state.State`.
* :mod:`repro.graph.task` — tasks, their channel connectivity, and their
  data-parallel variants.
* :mod:`repro.graph.channel` — channel declarations (item sizes feed the
  communication cost model).
* :mod:`repro.graph.taskgraph` — the graph container: validation,
  precedence, topological order.
* :mod:`repro.graph.dataparallel` — expansion of a data-parallel task into
  the splitter/worker/joiner subgraph of Figure 9.
* :mod:`repro.graph.builders` — generic topology builders (chains,
  fork-joins, and the Figure 2 tracker shape).
* :mod:`repro.graph.render` — ASCII rendering.
"""
