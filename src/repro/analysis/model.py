"""Pass 5: explicit-state model checking of the STM protocol (rules ``Mxxx``).

Whether a schedule deadlocks or wedges on capacity is a property of the
channel protocol, and this pass decides it.  It compiles a (graph,
channel-capacity, consume-declaration) configuration into a finite
transition system — task quanta as transitions, channel occupancy and
per-consumer cursors as state — and exhaustively explores the reachable
states:

* ``M001`` — a reachable deadlock (a wait cycle actually wedges), with a
  minimized counterexample trace;
* ``M002`` — a progress violation: an agent starves forever even under
  fair scheduling, because the item it waits for is never produced (or
  the capacity it waits for is never released);
* ``M003`` — a minimal-capacity certificate per bounded channel: the
  least capacity proving deadlock-freedom, so over-provisioned channels
  surface as INFO and under-provisioned ones as ERRORs, each quoting the
  schedule's slip-free in-flight count (:func:`schedule_in_flight`);
* ``M004`` — the state-space budget was exceeded (explicit, never
  silent; no verdict is claimed on a truncated run).

Where nothing is proved — the budget ran out, or the model cannot be
built — the schedule's in-flight estimate gates instead: ``P002`` for
each channel a given schedule keeps fuller than its capacity.

The model mirrors a schedule-less
:class:`~repro.runtime.threaded.ThreadedRuntime`, one lane per task:
every task is an agent performing, per timestamp, its stream *gets*
(input order), its *puts* (output order), then its *consumes*; every
terminal channel gets a collector agent that gets-then-consumes.  A
node given a schedule runs several agents' programs in one lane thread
(:class:`~repro.runtime.live.LiveNode`), in a fixed order, so its
executions are among the agents' interleavings; :mod:`repro.runtime.live`
argues why that order adds no deadlock.
:class:`ChannelDecl` generalizes the access pattern — a consumer may hold
a *window* of items before consuming the oldest, and either side may
touch only a strided subset of timestamps — which is how real deadlocks
arise (the default declarations on an acyclic graph are provably safe).

**State canonicalization.**  Each agent is sequential and deterministic,
so a global state is fully described by the tuple of per-agent operation
counters; occupancies and cursors are *derived* (precomputed per counter
value).  Interleavings that reach the same counters hash to the same
state by construction — that is the canonical-state hashing.

**Partial-order reduction.**  Every enabling condition here is monotone:
a ``get`` stays enabled once its item is put (watermark GC cannot
collect it before this consumer consumes it), a ``put`` stays enabled
once occupancy drops below capacity (other agents only decrease
occupancy), and ``consume`` never blocks.  Enabled transitions are
therefore never disabled by other agents — the system is *persistent*,
hence confluent: every maximal run ends in the same terminal state.  A
singleton ample set (execute any one enabled transition per state) is
thus a sound reduction, and exploration is linear in the trace length.
``explore(por=False)`` keeps the full breadth-first search for
brute-force cross-checks (the M003 property tests).

Counterexample traces are minimized to their causal core (program order
plus put-enables-get and consume-releases-put dependencies) and can be
*validated* against the real threaded runtime by
:mod:`repro.analysis.replay`.

**One exploration per channel structure.**  Nothing :func:`build_model`
reads is a cost: a table's states, a recalibrated graph and a warm rebuild
share one transition system.  :func:`check_model` therefore remembers, per
process, what exploring a structure proved (verdict, counterexample,
minimal safe capacities), keyed by exactly what the model is built from,
and writes every finding afresh from it for the graph it was handed.
"""

from __future__ import annotations

import threading
import time as _time
from bisect import bisect_right
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.analysis.findings import AnalysisReport, Severity
from repro.core.schedule import ScheduleSolution
from repro.errors import GraphError
from repro.graph.taskgraph import TaskGraph

__all__ = [
    "ChannelDecl",
    "Step",
    "ModelResult",
    "StmModel",
    "build_model",
    "minimal_capacity",
    "check_model",
    "schedule_in_flight",
    "collector_name",
    "DEFAULT_BUDGET",
]

#: Reachable-state ceiling; exceeding it emits ``M004`` (never silent).
DEFAULT_BUDGET = 200_000

#: Hard cap on the timestamp horizon (windows/strides/capacities push the
#: default up; nothing in this model needs more iterations than this to
#: reach its steady state).
MAX_HORIZON = 64

#: Channel structures whose exploration :func:`check_model` keeps (least
#: recently used first out).  A table build asks about one; the analyzer's
#: sweep over every shipped configuration about ten.
_PROOFS_KEPT = 64

_GET, _PUT, _CONSUME = "get", "put", "consume"

_EPS = 1e-9


def collector_name(channel: str) -> str:
    """The model agent draining terminal channel ``channel``."""
    return f"-collect-{channel}"


@dataclass(frozen=True)
class ChannelDecl:
    """How one agent accesses one channel (the consume declaration).

    The default (``window=1, stride=1, offset=0``) is exactly the
    threaded runtime: touch every timestamp in order and consume each
    item at the end of its own iteration.

    ``window=w`` (consumers) holds the last ``w`` gotten items before
    consuming the oldest — a sliding-window kernel.  ``stride``/``offset``
    restrict either side to timestamps ``offset, offset+stride, ...`` — a
    decimating consumer or a conditionally-emitting producer.  A decl may
    also name a collector agent (:func:`collector_name`).
    """

    task: str
    channel: str
    window: int = 1
    stride: int = 1
    offset: int = 0

    def __post_init__(self) -> None:
        if self.window < 1 or self.stride < 1 or self.offset < 0:
            raise ValueError(
                f"ChannelDecl({self.task!r}, {self.channel!r}) needs "
                "window >= 1, stride >= 1, offset >= 0"
            )

    def timestamps(self, horizon: int) -> list[int]:
        return list(range(self.offset, horizon, self.stride))


@dataclass(frozen=True)
class Step:
    """One executed transition: ``agent`` performed ``kind`` on ``channel``."""

    agent: str
    kind: str
    channel: str
    ts: int

    def __str__(self) -> str:
        return f"{self.agent}: {self.kind} {self.channel}@{self.ts}"


@dataclass
class ModelResult:
    """What one exploration established.

    ``verdict`` is ``"ok"`` (terminal state complete), ``"deadlock"``
    (``deadlocked`` agents wait on each other in a cycle),
    ``"starvation"`` (``starved`` agents wait on something that can never
    happen), or ``"budget"`` (exploration truncated — no claims).  The
    ``trace`` is the minimized counterexample reaching the wedge (empty
    for ``"ok"``); ``blocked`` maps every stuck agent to the operation it
    is stuck on.
    """

    verdict: str
    states: int
    transitions: int
    horizon: int
    budget: int
    elapsed_s: float
    trace: list[Step]
    blocked: dict[str, Step]
    deadlocked: tuple[str, ...] = ()
    starved: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    def render_trace(self, limit: int = 12) -> str:
        """The counterexample as one ``;``-joined line (elided past ``limit``)."""
        shown = [str(s) for s in self.trace[:limit]]
        if len(self.trace) > limit:
            shown.append(f"... {len(self.trace) - limit} more")
        return "; ".join(shown)


class _Agent:
    """One sequential process: a task or a terminal-channel collector."""

    __slots__ = ("name", "index", "ops", "puts_done", "watermark")

    def __init__(self, name: str, index: int, ops: list[Step]) -> None:
        self.name = name
        self.index = index
        self.ops = ops
        # Derived-state arrays, indexed by the agent's op counter:
        # puts_done[ch][n] = puts performed on ch after n ops;
        # watermark[ch][n] = highest timestamp consumed on ch (-1 none).
        self.puts_done: dict[str, list[int]] = {}
        self.watermark: dict[str, list[int]] = {}
        for op in ops:
            if op.kind == _PUT:
                self.puts_done.setdefault(op.channel, [])
            elif op.kind == _CONSUME:
                self.watermark.setdefault(op.channel, [])
        counts = {ch: 0 for ch in self.puts_done}
        marks = {ch: -1 for ch in self.watermark}
        for ch in self.puts_done:
            self.puts_done[ch].append(0)
        for ch in self.watermark:
            self.watermark[ch].append(-1)
        for op in ops:
            if op.kind == _PUT:
                counts[op.channel] += 1
            elif op.kind == _CONSUME:
                marks[op.channel] = max(marks[op.channel], op.ts)
            for ch, arr in self.puts_done.items():
                arr.append(counts[ch])
            for ch, arr in self.watermark.items():
                arr.append(marks[ch])


class _Channel:
    """Static per-channel data: producer, consumers, capacity, put plan."""

    __slots__ = ("name", "capacity", "producer", "consumers", "put_plan", "put_pos")

    def __init__(self, name: str, capacity: Optional[int]) -> None:
        self.name = name
        self.capacity = capacity
        self.producer: Optional[str] = None
        self.consumers: list[str] = []
        self.put_plan: list[int] = []
        self.put_pos: dict[int, int] = {}


def _resolve_decls(decls: Iterable[ChannelDecl]) -> dict[tuple[str, str], ChannelDecl]:
    out: dict[tuple[str, str], ChannelDecl] = {}
    for d in decls:
        key = (d.task, d.channel)
        if key in out:
            raise ValueError(f"duplicate ChannelDecl for {key}")
        out[key] = d
    return out


class StmModel:
    """The compiled transition system for one (graph, capacity, decl) config.

    Build through :func:`build_model`, which validates the configuration;
    then :meth:`explore` walks the reachable states and classifies the
    terminal one.
    """

    def __init__(
        self,
        graph: TaskGraph,
        agents: list[_Agent],
        channels: dict[str, _Channel],
        horizon: int,
    ) -> None:
        self.graph = graph
        self.agents = agents
        self.channels = channels
        self.horizon = horizon
        self._by_name = {a.name: a for a in agents}
        self._agent_index = {a.name: a.index for a in agents}

    # -- semantics ----------------------------------------------------------

    def _occupancy(self, ch: _Channel, state: Sequence[int]) -> int:
        prod = self._by_name[ch.producer]
        produced = prod.puts_done[ch.name][state[prod.index]]
        if not produced:
            return 0
        min_wm = min(
            self._by_name[k].watermark[ch.name][state[self._agent_index[k]]]
            for k in ch.consumers
        )
        collected = min(produced, bisect_right(ch.put_plan, min_wm, 0, produced))
        return produced - collected

    def _enabled(self, agent: _Agent, state: Sequence[int]) -> bool:
        op = agent.ops[state[agent.index]]
        if op.kind == _CONSUME:
            return True
        ch = self.channels[op.channel]
        if op.kind == _GET:
            pos = ch.put_pos.get(op.ts)
            if pos is None:
                return False
            prod = self._by_name[ch.producer]
            return pos < prod.puts_done[ch.name][state[prod.index]]
        if ch.capacity is None:
            return True
        return self._occupancy(ch, state) < ch.capacity

    # -- exploration --------------------------------------------------------

    def explore(self, por: bool = True, budget: int = DEFAULT_BUDGET) -> ModelResult:
        """Walk the reachable state space and classify the terminal state.

        ``por=True`` (default) uses the singleton-ample-set reduction the
        module docstring justifies; ``por=False`` runs the full BFS over
        every interleaving (brute force, for cross-checks).
        """
        t0 = _time.perf_counter()
        n = len(self.agents)
        if por:
            state = [0] * n
            path: list[Step] = []
            states = 1
            while True:
                if states > budget:
                    return self._budget_result(states, len(path), budget, t0)
                chosen = None
                for agent in self.agents:
                    if state[agent.index] < len(agent.ops) and self._enabled(
                        agent, state
                    ):
                        chosen = agent
                        break
                if chosen is None:
                    break
                path.append(chosen.ops[state[chosen.index]])
                state[chosen.index] += 1
                states += 1
            return self._classify(tuple(state), path, states, len(path), budget, t0)

        initial = tuple([0] * n)
        parents: dict[tuple, Optional[tuple[tuple, Step]]] = {initial: None}
        queue: deque[tuple] = deque([initial])
        transitions = 0
        while queue:
            s = queue.popleft()
            any_enabled = False
            for agent in self.agents:
                if s[agent.index] >= len(agent.ops) or not self._enabled(agent, s):
                    continue
                any_enabled = True
                transitions += 1
                t = list(s)
                t[agent.index] += 1
                t = tuple(t)
                if t not in parents:
                    if len(parents) >= budget:
                        return self._budget_result(
                            len(parents), transitions, budget, t0
                        )
                    parents[t] = (s, agent.ops[s[agent.index]])
                    queue.append(t)
            if not any_enabled:
                # By confluence every maximal run ends here; BFS reaches
                # it by a shortest path first.
                path = []
                cur: tuple = s
                while parents[cur] is not None:
                    prev, step = parents[cur]  # type: ignore[misc]
                    path.append(step)
                    cur = prev
                path.reverse()
                return self._classify(s, path, len(parents), transitions, budget, t0)
        # Empty model (no ops at all).
        return self._classify(initial, [], 1, 0, budget, t0)

    def _budget_result(
        self, states: int, transitions: int, budget: int, t0: float
    ) -> ModelResult:
        return ModelResult(
            verdict="budget",
            states=states,
            transitions=transitions,
            horizon=self.horizon,
            budget=budget,
            elapsed_s=_time.perf_counter() - t0,
            trace=[],
            blocked={},
        )

    # -- terminal-state classification --------------------------------------

    def _classify(
        self,
        state: tuple,
        path: list[Step],
        states: int,
        transitions: int,
        budget: int,
        t0: float,
    ) -> ModelResult:
        blocked = {
            a.name: a.ops[state[a.index]]
            for a in self.agents
            if state[a.index] < len(a.ops)
        }
        if not blocked:
            return ModelResult(
                verdict="ok",
                states=states,
                transitions=transitions,
                horizon=self.horizon,
                budget=budget,
                elapsed_s=_time.perf_counter() - t0,
                trace=[],
                blocked={},
            )
        starved, edges = self._wait_edges(state, blocked)
        # Propagate: an agent whose progress requires a starved agent is
        # itself starved (its wait chain ends at something that can never
        # happen).
        changed = True
        while changed:
            changed = False
            for name, needs in edges.items():
                if name in starved:
                    continue
                if any(b in starved for b in needs):
                    starved.add(name)
                    changed = True
        # Everything blocked but not starved waits only on other blocked,
        # non-starved agents — a genuine wait cycle (deadlock).
        deadlocked = tuple(sorted(set(blocked) - starved))
        wedged = set(blocked)
        trace = self._minimize(path, state, wedged) if wedged else []
        return ModelResult(
            verdict="deadlock" if deadlocked else "starvation",
            states=states,
            transitions=transitions,
            horizon=self.horizon,
            budget=budget,
            elapsed_s=_time.perf_counter() - t0,
            trace=trace,
            blocked=blocked,
            deadlocked=deadlocked,
            starved=tuple(sorted(starved)),
        )

    def _wait_edges(
        self, state: tuple, blocked: dict[str, Step]
    ) -> tuple[set[str], dict[str, set[str]]]:
        """Who each blocked agent waits on; agents waiting on the impossible.

        Returns ``(starved_seeds, edges)`` where an edge ``a -> b`` means
        ``a``'s next operation needs ``b`` to make progress, and a seed is
        an agent whose need can *never* be met (the producer will never
        put that timestamp; a laggard consumer has no consume left).
        """
        starved: set[str] = set()
        edges: dict[str, set[str]] = {name: set() for name in blocked}
        for name, op in blocked.items():
            ch = self.channels[op.channel]
            if op.kind == _GET:
                pos = ch.put_pos.get(op.ts)
                prod = self._by_name[ch.producer]
                remaining = len(prod.ops) - state[prod.index]
                if pos is None or (
                    remaining == 0
                    and pos >= prod.puts_done[ch.name][state[prod.index]]
                ):
                    starved.add(name)
                elif prod.name not in blocked:
                    # The producer is running free and will reach this put
                    # in any fair run — should be unreachable in a
                    # terminal state, but classify conservatively.
                    starved.add(name)
                else:
                    edges[name].add(prod.name)
            else:  # a put blocked on capacity
                produced = self._by_name[ch.producer].puts_done[ch.name][
                    state[self._by_name[ch.producer].index]
                ]
                min_wm = min(
                    self._by_name[k].watermark[ch.name][state[self._agent_index[k]]]
                    for k in ch.consumers
                )
                collected = min(
                    produced, bisect_right(ch.put_plan, min_wm, 0, produced)
                )
                ts0 = ch.put_plan[collected]  # first uncollected item
                for k in ch.consumers:
                    cons = self._by_name[k]
                    if cons.watermark[ch.name][state[cons.index]] >= ts0:
                        continue  # not a laggard for this item
                    future = any(
                        o.kind == _CONSUME and o.channel == ch.name and o.ts >= ts0
                        for o in cons.ops[state[cons.index] :]
                    )
                    if not future:
                        starved.add(name)
                    elif k in blocked:
                        edges[name].add(k)
                    else:
                        starved.add(name)  # conservative (see above)
        return starved, edges

    # -- trace replay and minimization --------------------------------------

    def run_trace(self, trace: Sequence[Step]) -> list[int]:
        """Execute ``trace`` from the initial state, checking every step.

        Raises :class:`ValueError` if a step does not match the agent's
        next operation or is not enabled when reached — the model-level
        validation that a (minimized) counterexample is a real execution.
        Returns the final state vector.
        """
        state = [0] * len(self.agents)
        for i, step in enumerate(trace):
            agent = self._by_name.get(step.agent)
            if agent is None:
                raise ValueError(f"trace step {i}: unknown agent {step.agent!r}")
            if state[agent.index] >= len(agent.ops):
                raise ValueError(f"trace step {i}: {step.agent!r} already finished")
            expected = agent.ops[state[agent.index]]
            if (expected.kind, expected.channel, expected.ts) != (
                step.kind,
                step.channel,
                step.ts,
            ):
                raise ValueError(
                    f"trace step {i}: {step} does not match program order "
                    f"(expected {expected})"
                )
            if not self._enabled(agent, state):
                raise ValueError(f"trace step {i}: {step} is not enabled")
            state[agent.index] += 1
        return state

    def _minimize(self, path: list[Step], state: tuple, wedged: set[str]) -> list[Step]:
        """Shrink ``path`` to the causal core that still wedges ``wedged``.

        Re-executes the path recording, per step, the steps that enabled
        it (the put behind a get; the consumes that freed capacity behind
        a bounded put), then takes the dependency closure of the wedged
        agents' executed prefixes.  Enabledness is monotone in the set of
        executed operations, so dropping everything outside the closure
        keeps every kept step enabled and every wedged agent blocked; the
        result is validated with :meth:`run_trace` (falling back to the
        full path if anything disagrees — soundness over brevity).
        """
        put_step: dict[tuple[str, int], int] = {}
        consume_steps: dict[tuple[str, str], list[tuple[int, int]]] = {}
        puts_so_far: dict[tuple[str, str], int] = {}
        local_idx: dict[str, int] = {}
        deps: list[list[int]] = []
        locals_: list[int] = []
        for gi, step in enumerate(path):
            locals_.append(local_idx.get(step.agent, 0))
            local_idx[step.agent] = locals_[-1] + 1
            d: list[int] = []
            ch = self.channels[step.channel]
            if step.kind == _GET:
                d.append(put_step[(step.channel, step.ts)])
            elif step.kind == _PUT:
                p = puts_so_far.get((step.agent, step.channel), 0)
                puts_so_far[(step.agent, step.channel)] = p + 1
                put_step[(step.channel, step.ts)] = gi
                if ch.capacity is not None and p >= ch.capacity:
                    ts0 = ch.put_plan[p - ch.capacity]
                    for k in ch.consumers:
                        for wm, idx in consume_steps.get((k, step.channel), ()):
                            if wm >= ts0:
                                d.append(idx)
                                break
            else:
                consume_steps.setdefault((step.agent, step.channel), []).append(
                    (step.ts, gi)
                )
            deps.append(d)

        needed: dict[str, int] = {}
        for name in wedged:
            agent = self._by_name[name]
            needed[name] = state[agent.index]
        changed = True
        while changed:
            changed = False
            for gi, step in enumerate(path):
                if locals_[gi] >= needed.get(step.agent, 0):
                    continue
                for d in deps[gi]:
                    dep = path[d]
                    if locals_[d] + 1 > needed.get(dep.agent, 0):
                        needed[dep.agent] = locals_[d] + 1
                        changed = True
        minimized = [
            step for gi, step in enumerate(path) if locals_[gi] < needed.get(step.agent, 0)
        ]
        try:
            final = self.run_trace(minimized)
            for name in wedged:
                agent = self._by_name[name]
                if final[agent.index] >= len(agent.ops) or self._enabled(agent, final):
                    return path
        except ValueError:
            return path
        return minimized


def _default_horizon(
    decls: dict[tuple[str, str], ChannelDecl], capacities: dict[str, Optional[int]]
) -> int:
    h = 4
    for d in decls.values():
        h = max(h, d.window + d.offset + d.stride + 2)
    for cap in capacities.values():
        if cap is not None:
            h = max(h, cap + 3)
    return min(h, MAX_HORIZON)


def build_model(
    graph: TaskGraph,
    *,
    capacities: Optional[dict[str, Optional[int]]] = None,
    decls: Iterable[ChannelDecl] = (),
    horizon: Optional[int] = None,
) -> StmModel:
    """Compile ``graph`` (plus overrides) into a :class:`StmModel`.

    ``capacities`` overrides declared channel capacities by name;
    ``decls`` supplies :class:`ChannelDecl` access patterns (default:
    every agent touches every timestamp, window 1 — the threaded
    runtime's behavior).  Raises :class:`ValueError` for declarations
    naming unknown agents/channels; structural defects (cycles, missing
    producers) are pass-1 territory and make the model unbuildable.
    """
    graph.validate()
    decl_map = _resolve_decls(decls)
    streaming = [ch for ch in graph.channels if not ch.static]
    caps: dict[str, Optional[int]] = {ch.name: ch.capacity for ch in streaming}
    for name, cap in (capacities or {}).items():
        if name not in caps:
            raise ValueError(f"capacity override for unknown channel {name!r}")
        caps[name] = cap

    channels: dict[str, _Channel] = {}
    terminal: list[str] = []
    for spec in streaming:
        prods = graph.producers(spec.name)
        cons = [t.name for t in graph.consumers(spec.name)]
        if not prods:
            if cons:
                raise ValueError(
                    f"channel {spec.name!r} has consumers but no producer "
                    "(a G003 structural defect; fix the graph first)"
                )
            continue  # orphan output of nothing — not part of the protocol
        ch = _Channel(spec.name, caps[spec.name])
        ch.producer = prods[0].name
        ch.consumers = cons
        channels[spec.name] = ch
        if not cons:
            terminal.append(spec.name)
            ch.consumers = [collector_name(spec.name)]

    agent_names = [t.name for t in graph.tasks] + [collector_name(c) for c in terminal]
    valid_pairs = set()
    for t in graph.tasks:
        for c in t.inputs:
            valid_pairs.add((t.name, c))
        for c in t.outputs:
            valid_pairs.add((t.name, c))
    for c in terminal:
        valid_pairs.add((collector_name(c), c))
    for key in decl_map:
        if key not in valid_pairs:
            raise ValueError(f"ChannelDecl names unknown (agent, channel) pair {key}")

    if horizon is None:
        horizon = _default_horizon(decl_map, caps)

    def pattern(agent: str, channel: str) -> ChannelDecl:
        return decl_map.get(
            (agent, channel), ChannelDecl(agent, channel)
        )

    # Put plans first (get enabledness indexes into them).
    for name, ch in channels.items():
        ch.put_plan = pattern(ch.producer, name).timestamps(horizon)
        ch.put_pos = {ts: i for i, ts in enumerate(ch.put_plan)}

    agents: list[_Agent] = []
    for idx, name in enumerate(agent_names):
        if name.startswith("-collect-"):
            stream_inputs = [name[len("-collect-") :]]
            outputs: list[str] = []
        else:
            task = graph.task(name)
            stream_inputs = [c for c in task.inputs if c in channels]
            outputs = [c for c in task.outputs if c in channels]
        get_plans = {c: pattern(name, c) for c in stream_inputs}
        get_ts = {c: get_plans[c].timestamps(horizon) for c in stream_inputs}
        get_set = {c: set(ts) for c, ts in get_ts.items()}
        get_idx = {c: {t: i for i, t in enumerate(ts)} for c, ts in get_ts.items()}
        put_set = {
            c: set(pattern(name, c).timestamps(horizon)) for c in outputs
        }
        ops: list[Step] = []
        for ts in range(horizon):
            for c in stream_inputs:
                if ts in get_set[c]:
                    ops.append(Step(name, _GET, c, ts))
            for c in outputs:
                if ts in put_set[c]:
                    ops.append(Step(name, _PUT, c, ts))
            for c in stream_inputs:
                if ts in get_set[c]:
                    j = get_idx[c][ts] - get_plans[c].window + 1
                    if j >= 0:
                        ops.append(Step(name, _CONSUME, c, get_ts[c][j]))
        agents.append(_Agent(name, idx, ops))

    return StmModel(graph, agents, channels, horizon)


def minimal_capacity(
    graph: TaskGraph,
    channel: str,
    *,
    capacities: Optional[dict[str, Optional[int]]] = None,
    decls: Iterable[ChannelDecl] = (),
    horizon: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    por: bool = True,
) -> Optional[int]:
    """The least capacity of ``channel`` under which no wedge is reachable.

    Other channels keep their (possibly overridden) capacities.  Returns
    ``None`` when no capacity up to the horizon helps (the wedge is not
    this channel's fault, or the budget was exceeded) — deadlock-freedom
    is monotone in capacity, so the scan stops at the first safe value.
    """
    decls = tuple(decls)
    base = dict(capacities or {})
    probe = build_model(
        graph, capacities={**base, channel: None}, decls=decls, horizon=horizon
    )
    for cap in range(1, probe.horizon + 1):
        model = build_model(
            graph, capacities={**base, channel: cap}, decls=decls, horizon=horizon
        )
        result = model.explore(por=por, budget=budget)
        if result.ok:
            return cap
        if result.verdict == "budget":
            return None
    return None


def schedule_in_flight(
    graph: TaskGraph, solution: ScheduleSolution
) -> dict[str, int]:
    """Schedule-derived live-item count per streaming channel.

    Item k of a channel is live from its producer's end until the last
    consumer's end, k*II later for each successive timestamp — the
    slip-free capacity bound M003 certificates quote, and the estimate
    ``P002`` gates on where nothing is proved.  Channels whose producer or
    consumers are missing from the schedule are omitted (malformed
    schedules are pass-2 findings).
    """
    out: dict[str, int] = {}
    placed = solution.iteration._by_task
    period = solution.period
    if period <= _EPS:
        return out
    for ch in graph.channels:
        if ch.static:
            continue
        prods = graph.producers(ch.name)
        cons = graph.consumers(ch.name)
        if not prods or not cons:
            continue
        try:
            produced = min(placed[t.name].end for t in prods)
            drained = max(placed[t.name].end for t in cons)
        except KeyError:
            continue
        out[ch.name] = int((drained - produced + _EPS) / period) + 1
    return out


def check_model(
    graph: TaskGraph,
    solution=None,
    *,
    solutions: Optional[Iterable] = None,
    decls: Iterable[ChannelDecl] = (),
    capacities: Optional[dict[str, Optional[int]]] = None,
    horizon: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Model-check ``graph``'s STM protocol; emit M-rules into ``report``.

    ``solution`` (or a sequence via ``solutions``) annotates M003
    certificates with the schedule's slip-free in-flight count; the model
    itself is self-timed, like the runtime it mirrors.  Where the check
    proves nothing — ``M004`` (budget exceeded, and the finding says how
    far exploration got), or a graph the model cannot be built from — each
    channel a schedule keeps fuller than its capacity gets a ``P002``.

    The exploration — :func:`build_model`, :meth:`StmModel.explore` and
    one :func:`minimal_capacity` scan per bounded channel — runs once per
    process for each channel structure: every task's name, inputs and
    outputs, every channel's name, ``static`` flag and capacity, and the
    ``decls`` / ``capacities`` / ``horizon`` / ``budget`` of the call.
    A repeated call (every build of one graph, a graph whose costs were
    recalibrated) reads that verdict back; the last 64 structures are
    kept, as verdict data only, never a graph.  Everything else is
    this call's: locations carry this graph's name, the in-flight counts
    come from this call's solutions, and each finding has the text a
    fresh exploration writes.
    """
    report = report if report is not None else AnalysisReport()
    decls = tuple(decls)  # read by the exploration, the scans and the key
    loc = f"graph:{graph.name}"
    sols = list(solutions) if solutions is not None else []
    if solution is not None:
        sols.insert(0, solution)
    live = [(sol, schedule_in_flight(graph, sol)) for sol in sols]
    proof = _prove(graph, decls, capacities, horizon, budget)
    if proof is None or proof.result.verdict == "budget":
        _over_capacity(graph, live, loc, report)
        if proof is not None:
            result = proof.result
            report.add(
                "M004",
                loc,
                f"state-space budget exceeded: explored {result.states} states "
                f"(budget {result.budget}, horizon {result.horizon}); no "
                "deadlock-freedom claim is made for this configuration",
            )
        return report
    result = proof.result

    if result.deadlocked:
        stuck = ", ".join(
            f"{a} on {result.blocked[a].kind} "
            f"{result.blocked[a].channel}@{result.blocked[a].ts}"
            for a in result.deadlocked
        )
        report.add(
            "M001",
            f"{loc}/tasks:{'+'.join(result.deadlocked)}",
            f"reachable deadlock: {stuck} wait on each other in a cycle; "
            f"counterexample ({len(result.trace)} steps): "
            f"{result.render_trace()}",
        )
    if result.starved:
        stuck = ", ".join(
            f"{a} on {result.blocked[a].kind} "
            f"{result.blocked[a].channel}@{result.blocked[a].ts}"
            for a in result.starved
        )
        report.add(
            "M002",
            f"{loc}/tasks:{'+'.join(result.starved)}",
            f"progress violation: {stuck} can never be satisfied under any "
            f"fair scheduling (the awaited operation is not in any agent's "
            f"remaining program); trace ({len(result.trace)} steps): "
            f"{result.render_trace()}",
        )

    # M003 — minimal-capacity certificates for every bounded channel.
    in_flight: dict[str, int] = {}
    for _sol, counts in live:
        for name, w in counts.items():
            in_flight[name] = max(in_flight.get(name, 0), w)
    for name, (capacity, min_cap) in proof.bounded.items():
        cloc = f"{loc}/channel:{name}"
        slip = in_flight.get(name)
        slip_note = (
            f"; the schedule keeps up to {slip} in flight (slip-free bound)"
            if slip is not None
            else ""
        )
        if min_cap is None:
            report.add(
                "M003",
                cloc,
                f"no capacity up to horizon {result.horizon} makes "
                f"{name!r} safe — the wedge is not capacity-induced"
                + slip_note,
                severity=Severity.ERROR,
            )
        elif capacity < min_cap:
            report.add(
                "M003",
                cloc,
                f"declared capacity {capacity} is below the minimal safe "
                f"capacity {min_cap}; the model finds a reachable wedge"
                + slip_note,
                severity=Severity.ERROR,
            )
        elif capacity > max(min_cap, slip or 0):
            report.add(
                "M003",
                cloc,
                f"declared capacity {capacity} exceeds the minimal safe "
                f"capacity {min_cap} (over-provisioned)" + slip_note,
            )
        else:
            report.add(
                "M003",
                cloc,
                f"declared capacity {capacity} is certified: minimal safe "
                f"capacity is {min_cap}" + slip_note,
            )
    return report


def _over_capacity(graph: TaskGraph, live, loc: str, report: AnalysisReport) -> None:
    """P002 for each (solution, in-flight counts) pair that overruns a channel."""
    for sol, counts in live:
        for ch in graph.channels:
            in_flight = counts.get(ch.name)
            if ch.capacity is None or in_flight is None:
                continue
            if in_flight > ch.capacity:
                report.add(
                    "P002",
                    f"{loc}/channel:{ch.name}",
                    f"schedule keeps {in_flight} items of {ch.name!r} in "
                    f"flight (II={sol.period:g}s) but capacity is "
                    f"{ch.capacity}",
                )


@dataclass(frozen=True)
class _Proof:
    """What exploring one channel structure established — names, no graph.

    ``bounded`` maps each bounded channel, by name, to its capacity in the
    model and the least capacity proving it safe (``None``: none does).
    """

    result: ModelResult
    bounded: dict[str, tuple[int, Optional[int]]]


_proofs: OrderedDict[tuple, Optional[_Proof]] = OrderedDict()
_proofs_lock = threading.Lock()


def _prove(
    graph: TaskGraph,
    decls: tuple[ChannelDecl, ...],
    capacities: Optional[dict[str, Optional[int]]],
    horizon: Optional[int],
    budget: int,
) -> Optional[_Proof]:
    """The exploration of ``graph``'s channel structure, run once per process.

    ``None`` when nothing streams, or when the graph is structurally
    unsound (a :class:`~repro.errors.GraphError`: pass 1 reports it), and
    a failure is never kept.  A ``ValueError`` from the call's own
    ``decls`` / ``capacities`` reaches the caller.
    """
    key = (
        tuple((t.name, t.inputs, t.outputs) for t in graph.tasks),
        tuple((ch.name, ch.static, ch.capacity) for ch in graph.channels),
        decls,
        tuple(sorted((capacities or {}).items())),
        horizon,
        budget,
    )
    with _proofs_lock:
        if key in _proofs:
            _proofs.move_to_end(key)
            return _proofs[key]
    try:
        model = build_model(graph, capacities=capacities, decls=decls, horizon=horizon)
    except GraphError:
        return None
    proof = None
    if model.channels:
        result = model.explore(budget=budget)
        bounded: dict[str, tuple[int, Optional[int]]] = {}
        if result.verdict != "budget":
            for name, ch in sorted(model.channels.items()):
                if ch.capacity is not None:
                    bounded[name] = (ch.capacity, minimal_capacity(
                        graph, name, capacities=capacities, decls=decls,
                        horizon=horizon, budget=budget,
                    ))
        proof = _Proof(result, bounded)
    with _proofs_lock:
        _proofs[key] = proof
        if len(_proofs) > _PROOFS_KEPT:
            _proofs.popitem(last=False)
    return proof
