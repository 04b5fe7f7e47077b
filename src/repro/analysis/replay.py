"""Counterexample replay: prove a model trace wedges the *real* runtime.

A model-checker verdict is only as good as the model, so M001/M002
counterexamples are validated rather than trusted: this harness builds
real :class:`~repro.stm.threaded.ThreadedChannel` objects (instrumented
with :class:`~repro.analysis.race.RaceChecker`'s tracked locks, the same
instrumentation pass 4 uses), spawns one real thread per model agent, and
drives the threads through the trace's exact interleaving with a
turn-based gate.  After the trace prefix, each agent the model claims is
wedged attempts its next channel operation with a short timeout — a
genuine wedge means every one of them times out inside the real STM.

The thread bodies mirror the model's op lists, which mirror
:class:`~repro.runtime.threaded.ThreadedRuntime`'s per-timestamp order
(gets, puts, consumes), so a confirmed replay is evidence about the
shipping runtime, not about a toy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.analysis.model import ChannelDecl, Step, StmModel, build_model
from repro.analysis.race import RaceChecker
from repro.graph.taskgraph import TaskGraph
from repro.stm.threaded import ChannelPoisoned, ThreadedChannel

__all__ = ["ReplayOutcome", "replay_trace"]


class _ReplayStopped(Exception):
    """Internal: the gate shut down; the thread should exit quietly."""


@dataclass
class ReplayOutcome:
    """What driving the real runtime through a model trace established.

    ``wedged`` is True when every agent in ``expect_blocked`` timed out
    inside the real channel operation the model said it would block on.
    ``blocked``/``progressed`` record the per-agent outcomes; a non-empty
    ``errors`` list means the replay itself failed (a trace step raised),
    which falsifies the model — exactly what this harness exists to catch.
    """

    wedged: bool
    blocked: dict[str, str] = field(default_factory=dict)
    progressed: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    trace_len: int = 0


class _StepGate:
    """Turn controller: releases one trace step at a time, then probes.

    Threads call :meth:`wait_turn` before each operation; during the
    trace phase only the scheduled ``(agent, local_index)`` may proceed.
    :meth:`start_probe` then releases exactly the agents the model claims
    are wedged so they can attempt (and time out on) their next op.
    """

    def __init__(self, schedule: Sequence[tuple[str, int]], deadline_s: float) -> None:
        self._cv = threading.Condition()
        self._schedule = list(schedule)
        self._i = 0
        self._phase = "trace"
        self._probe: set[str] = set()
        self._deadline_s = deadline_s

    def wait_turn(self, agent: str, local_idx: int) -> str:
        with self._cv:
            while True:
                if self._phase == "stopped":
                    raise _ReplayStopped
                if (
                    self._phase == "trace"
                    and self._i < len(self._schedule)
                    and self._schedule[self._i] == (agent, local_idx)
                ):
                    return "run"
                if self._phase == "probe" and agent in self._probe:
                    return "probe"
                if not self._cv.wait(self._deadline_s):
                    raise _ReplayStopped  # overall deadline; outcome stays honest

    def done(self) -> None:
        with self._cv:
            self._i += 1
            self._cv.notify_all()

    def start_probe(self, agents: Iterable[str]) -> None:
        with self._cv:
            self._phase = "probe"
            self._probe = set(agents)
            self._cv.notify_all()

    def stop(self) -> None:
        with self._cv:
            self._phase = "stopped"
            self._cv.notify_all()

    def trace_drained(self, timeout: float) -> bool:
        with self._cv:
            return self._cv.wait_for(
                lambda: self._i >= len(self._schedule), timeout
            )


def replay_trace(
    graph: TaskGraph,
    trace: Sequence[Step],
    expect_blocked: Iterable[str],
    *,
    capacities: Optional[dict[str, Optional[int]]] = None,
    decls: Iterable[ChannelDecl] = (),
    horizon: Optional[int] = None,
    model: Optional[StmModel] = None,
    probe_timeout: float = 0.5,
    op_timeout: float = 10.0,
) -> ReplayOutcome:
    """Drive real threads through ``trace``; confirm ``expect_blocked`` wedge.

    ``model`` may pass the already-built :class:`StmModel` (it supplies
    the agent op lists); otherwise one is compiled from the same
    configuration.  The trace is validated at the model level first
    (:meth:`StmModel.run_trace`), then executed step by step on real
    :class:`ThreadedChannel` objects.  Channels are poisoned and all
    threads joined before returning, whatever the outcome.
    """
    decls = tuple(decls)
    if model is None:
        model = build_model(
            graph, capacities=capacities, decls=decls, horizon=horizon
        )
    model.run_trace(trace)  # model-level validation before touching threads
    expect = set(expect_blocked)

    checker = RaceChecker()
    channels = {
        name: ThreadedChannel(name, capacity=ch.capacity, analysis=checker)
        for name, ch in model.channels.items()
    }
    # Attach exactly the model's connection set before any thread starts,
    # so watermark GC (hence occupancy, hence is_full) matches the
    # model's occupancy function.
    conns: dict[tuple[str, str, str], object] = {}
    for name, ch in model.channels.items():
        conns[(ch.producer, "out", name)] = channels[name].attach_output(ch.producer)
        for k in ch.consumers:
            conns[(k, "in", name)] = channels[name].attach_input(k)

    schedule: list[tuple[str, int]] = []
    counters: dict[str, int] = {}
    for step in trace:
        schedule.append((step.agent, counters.get(step.agent, 0)))
        counters[step.agent] = counters.get(step.agent, 0) + 1

    outcome = ReplayOutcome(wedged=False, trace_len=len(trace))
    # Generous overall deadline: every trace step is enabled by model
    # validation, so the gate should never wait anywhere near this long.
    gate = _StepGate(schedule, deadline_s=op_timeout * 3)
    lock = threading.Lock()
    probe_done = threading.Condition(lock)

    def perform(agent: str, op: Step, timeout: float) -> None:
        ch = channels[op.channel]
        if op.kind == "get":
            conn = conns[(agent, "in", op.channel)]
            ch.get(conn, op.ts, timeout=timeout)
        elif op.kind == "put":
            conn = conns[(agent, "out", op.channel)]
            ch.put(conn, op.ts, f"{op.channel}@{op.ts}", timeout=timeout)
        else:
            conn = conns[(agent, "in", op.channel)]
            ch.consume(conn, op.ts)

    def agent_body(agent_name: str, ops: Sequence[Step]) -> None:
        try:
            for j, op in enumerate(ops):
                mode = gate.wait_turn(agent_name, j)
                if mode == "run":
                    perform(agent_name, op, timeout=op_timeout)
                    gate.done()
                    continue
                # Probe: attempt the op the model says blocks forever.
                try:
                    perform(agent_name, op, timeout=probe_timeout)
                except TimeoutError:
                    with lock:
                        outcome.blocked[agent_name] = str(op)
                        probe_done.notify_all()
                else:
                    with lock:
                        outcome.progressed[agent_name] = str(op)
                        probe_done.notify_all()
                return
        except (_ReplayStopped, ChannelPoisoned):
            pass
        except BaseException as exc:  # noqa: BLE001 - reported in the outcome
            with lock:
                outcome.errors.append(f"{agent_name}: {exc!r}")
                probe_done.notify_all()

    threads = []
    for agent in model.agents:
        token = checker.fork()

        def wrapper(agent=agent, token=token):
            checker.adopt(token)
            agent_body(agent.name, agent.ops)

        threads.append(
            threading.Thread(target=wrapper, name=f"replay:{agent.name}", daemon=True)
        )
    for th in threads:
        th.start()

    try:
        if not gate.trace_drained(timeout=op_timeout * (len(trace) + 2)):
            outcome.errors.append(
                f"trace stalled at step {gate._i}/{len(trace)}"
            )
            return outcome
        gate.start_probe(expect)
        deadline = probe_timeout * 4 + 2.0
        with lock:
            probe_done.wait_for(
                lambda: outcome.errors
                or len(outcome.blocked) + len(outcome.progressed) >= len(expect),
                timeout=deadline,
            )
        outcome.wedged = (
            not outcome.errors
            and not outcome.progressed
            and set(outcome.blocked) == expect
        )
        return outcome
    finally:
        gate.stop()
        for ch in channels.values():
            ch.poison()
        for th in threads:
            th.join(timeout=5.0)
