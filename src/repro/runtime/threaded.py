"""The live runtime: real Python threads over thread-safe STM channels.

Stampede's execution model — "each task is a POSIX thread" communicating
through STM — run for real: every task becomes a Python thread, channels
are :class:`~repro.stm.threaded.ThreadedChannel`, and each task's
``compute`` kernel (real NumPy code for the tracker) actually executes.

This runtime demonstrates the programming model end to end and powers the
kernel-calibration path; it is *not* used for latency experiments, because
the GIL makes wall-clock timing unrepresentative of an SMP (see
DESIGN.md §2).  Frames are processed in order and the item count is known
up front, so threads terminate naturally; :meth:`ThreadedRuntime.run`
also poisons every channel on failure so no thread is left blocked.
"""

from __future__ import annotations

import threading
import time as _time
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ReproError
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import build_task_plans
from repro.runtime.live import (
    ChannelEnds,
    FrameStamps,
    LiveResult,
    check_static_inputs,
    check_timestamps,
    make_exchange,
    merge_completion,
    report_frames,
    run_frames,
    terminal_channels,
)
from repro.sim.trace import ExecSpan, TraceRecorder
from repro.state import State
from repro.stm.threaded import ChannelPoisoned, ThreadedChannel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.analysis.race import RaceChecker
    from repro.obs import Observability

__all__ = ["ThreadedRuntime"]


class ThreadedRuntime:
    """Run a task graph with real threads and real kernels.

    Parameters
    ----------
    graph:
        Validated task graph whose tasks carry ``compute`` kernels
        (tasks without one pass their merged inputs through unchanged).
    state:
        Application state handed to every kernel.
    static_inputs:
        Values for static channels, e.g. ``{"color_model": models}``.
    op_timeout:
        Per-operation blocking timeout in seconds (keeps tests from
        hanging on bugs).
    obs:
        Optional :class:`~repro.obs.Observability` bundle, subscribed to
        the run's trace.  It hears every kernel invocation (one span per
        (task, timestamp)) and every channel operation as it is recorded,
        on the run's clock, and every completed frame with its latency
        after the run; this is the live-measurement path behind kernel
        calibration — the ``obs`` experiment reports the measured
        overhead.
    analysis:
        Optional :class:`~repro.analysis.race.RaceChecker`.  Channels are
        created with tracked locks and message edges, and thread
        start/join add fork/adopt edges, so a clean run reports zero
        races; read findings with ``analysis.report()`` after :meth:`run`.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        static_inputs: Optional[dict[str, Any]] = None,
        op_timeout: float = 60.0,
        obs: Optional["Observability"] = None,
        analysis: Optional["RaceChecker"] = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.state = state
        self.static_inputs = dict(static_inputs or {})
        self.op_timeout = op_timeout
        self.obs = obs
        self.analysis = analysis
        check_static_inputs(graph, self.static_inputs)

    def run(self, timestamps: int) -> LiveResult:
        """Process ``timestamps`` frames in order; returns terminal outputs."""
        check_timestamps(timestamps)
        obs = self.obs
        checker = self.analysis
        channels: dict[str, ThreadedChannel] = {
            spec.name: ThreadedChannel(spec.name, capacity=spec.capacity, analysis=checker)
            for spec in self.graph.channels
        }
        # Static configuration channels are filled before any thread starts.
        for name, value in self.static_inputs.items():
            conn = channels[name].attach_output("-env-")
            channels[name].put(conn, 0, value)

        terminal = terminal_channels(self.graph)
        outputs: dict[str, dict[int, Any]] = {ch: {} for ch in terminal}
        errors: list[BaseException] = []
        errors_lock = threading.Lock()
        # Wall-clock capture, all relative to stamps.t0 (set just before
        # threads start; the closures only read it after starting).
        stamps = FrameStamps()
        completion_raw: dict[str, dict[int, float]] = {ch: {} for ch in terminal}
        trace = TraceRecorder()
        if obs is not None:
            trace.subscribe(obs.on_record)

        def record_error(exc: BaseException) -> None:
            with errors_lock:
                errors.append(exc)
            for ch in channels.values():
                ch.poison()

        # Attach every connection BEFORE any thread starts: reference-count
        # GC considers only attached input connections, so a consumer that
        # attached late could find its items already collected.
        conns_in = {
            t.name: {ch: channels[ch].attach_input(t.name) for ch in t.inputs}
            for t in self.graph.tasks
        }
        conns_out = {
            t.name: {ch: channels[ch].attach_output(t.name) for ch in t.outputs}
            for t in self.graph.tasks
        }
        collector_conns = {ch: channels[ch].attach_input("-collector-") for ch in terminal}

        plans = build_task_plans(self.graph)

        def task_body(task) -> None:
            try:
                ins = conns_in[task.name]
                outs = conns_out[task.name]
                plan = plans[task.name]
                # Flat dispatch: channel classification and (channel, conn)
                # triples resolved once, outside the frame loop.  Every
                # channel lives in this process, so every end is local.
                ends = ChannelEnds.of(plan, channels, ins, outs)
                statics = {
                    ch: channels[ch].get(ins[ch], 0, timeout=self.op_timeout)[1]
                    for ch in plan.static_inputs
                }
                exchange = make_exchange(plan, ends, statics,
                                         self.op_timeout, stamps)

                def run_kernel(inputs, ts):
                    k0 = _time.perf_counter()
                    result = task.compute(self.state, inputs)
                    k1 = _time.perf_counter()
                    trace.record_span(ExecSpan(plan.index, task.name, ts,
                                               k0 - stamps.t0, k1 - stamps.t0,
                                               node_class="nominal"))
                    return result

                run_frames(plan, exchange,
                           run_kernel if task.compute is not None else None,
                           0, timestamps)
            except ChannelPoisoned:
                pass
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                record_error(exc)

        def collector_body(ch_name: str) -> None:
            try:
                conn = collector_conns[ch_name]
                for ts in range(timestamps):
                    got_ts, value = channels[ch_name].get(conn, ts, timeout=self.op_timeout)
                    outputs[ch_name][got_ts] = value
                    completion_raw[ch_name][got_ts] = _time.perf_counter() - stamps.t0
                    channels[ch_name].consume(conn, got_ts)
            except ChannelPoisoned:
                pass
            except BaseException as exc:  # noqa: BLE001
                record_error(exc)

        # Fork/join happens-before edges for the race checker: the main
        # thread forks a clock token per thread (so pre-start setup — e.g.
        # static puts — happens-before everything the thread does) and
        # adopts each thread's end token after join (so post-join reads of
        # outputs/stats happen-after everything the thread did).
        end_tokens: list = []
        end_lock = threading.Lock()

        def spawn(name: str, body, *args) -> threading.Thread:
            token = checker.fork() if checker is not None else None

            def wrapper() -> None:
                if token is not None:
                    checker.adopt(token)
                body(*args)
                if checker is not None:
                    with end_lock:
                        end_tokens.append(checker.fork())

            return threading.Thread(target=wrapper, name=name, daemon=True)

        threads = [spawn(f"task:{t.name}", task_body, t) for t in self.graph.tasks]
        threads += [spawn(f"collect:{ch}", collector_body, ch) for ch in terminal]
        t0 = stamps.t0 = _time.perf_counter()
        if obs is not None:
            # after the static fill: configuration is not a frame's traffic
            for ch in channels.values():
                ch.record_into(trace, t0)
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=self.op_timeout * (timestamps + 2))
        wall = _time.perf_counter() - t0
        alive = [th.name for th in threads if th.is_alive()]
        if alive:
            for ch in channels.values():
                ch.poison()
            raise ReproError(f"threads did not finish: {alive}")
        if errors:
            raise errors[0]
        if checker is not None:
            with end_lock:
                for token in end_tokens:
                    checker.adopt(token)
        trace.spans.sort(key=lambda s: s.start)
        completion = merge_completion(completion_raw)
        digitize_times = dict(sorted(stamps.times.items()))
        report_frames(obs, digitize_times, completion)
        return LiveResult(
            outputs=outputs,
            wall_time=wall,
            channel_stats={name: ch.stats for name, ch in channels.items()},
            digitize_times=digitize_times,
            completion_times=completion,
            trace=trace,
        )
