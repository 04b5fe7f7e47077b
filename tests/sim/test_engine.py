"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.errors import ProcessError, SimDeadlock, SimTimeError
from repro.sim.engine import Simulator

NAN = float("nan")


class TestSimEvent:
    def test_pending_state(self):
        sim = Simulator()
        ev = sim.event("e")
        assert not ev.triggered and not ev.fired

    def test_succeed_fires_after_run(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered and not ev.fired
        sim.run()
        assert ev.fired and ev.value == 42

    def test_succeed_twice_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(ProcessError):
            ev.succeed()

    def test_callback_after_fired_runs_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("x")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_delayed_succeed(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("late", delay=5.0)
        sim.run()
        assert sim.now == 5.0

    @pytest.mark.parametrize("delay", [-1.0, NAN])
    def test_a_delay_that_is_not_a_non_negative_number_is_rejected(self, delay):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimTimeError):
            ev.succeed(delay=delay)
        assert not ev.triggered and sim.peek() is None


class TestTimeout:
    def test_fires_at_delay(self):
        sim = Simulator()
        t = sim.timeout(2.5, value="done")
        sim.run()
        assert sim.now == 2.5 and t.value == "done"

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimTimeError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_at_current_time(self):
        sim = Simulator()
        sim.timeout(0.0)
        sim.run()
        assert sim.now == 0.0

    def test_nan_delay_rejected(self):
        """NaN compares false with everything, so a ``delay < 0`` guard let
        it through; it is a typed error, and nothing lands on the heap."""
        sim = Simulator()
        with pytest.raises(SimTimeError):
            sim.timeout(NAN)
        assert sim.peek() is None


class TestProcesses:
    """Callbacks that re-arm themselves are the kernel's only kind of
    thread; ``Simulator.process`` is a trampoline over them."""

    def test_processes_interleave_deterministically(self):
        sim = Simulator()
        log = []

        def worker(name, delay, repeats):
            def tick(_fired=None):
                log.append((sim.now, name))
                if len([entry for entry in log if entry[1] == name]) < repeats:
                    sim.timeout(delay).add_callback(tick)

            sim.timeout(delay).add_callback(tick)

        worker("slow", 2.0, 2)
        worker("fast", 1.0, 4)
        sim.run()
        assert log == [
            (1.0, "fast"), (2.0, "slow"), (2.0, "fast"), (3.0, "fast"),
            (4.0, "slow"), (4.0, "fast"),
        ]

    def test_the_trampoline_drives_a_generator_from_the_next_entry(self):
        """What the benchmark's kernel probes run through it: timeouts and
        resource grants, each value sent back in when its event fires."""
        from repro.sim.resources import Resource

        sim = Simulator()
        cpu = Resource(sim, capacity=1)
        log = []

        def worker(name):
            grant = yield cpu.request()
            yield sim.timeout(1.0)
            log.append((sim.now, name))
            cpu.release(grant)

        sim.process(worker("a"))
        sim.process(worker("b"))
        assert log == [] and len(sim._heap) == 2
        sim.run()
        assert log == [(1.0, "a"), (2.0, "b")]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        for i in range(5):
            ev = sim.event()
            ev.add_callback(lambda e, i=i: log.append(i))
            ev.succeed()
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            sim.process("not a generator")  # type: ignore[arg-type]

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def bad(sim):
            yield 42

        sim.process(bad(sim))
        with pytest.raises(ProcessError):
            sim.run()


class TestRun:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        sim.timeout(10.0)
        assert sim.run(until=4.0) == 4.0
        assert sim.peek() == 10.0

    def test_run_past_all_events_advances_to_until(self):
        sim = Simulator()
        sim.timeout(1.0)
        assert sim.run(until=100.0) == 100.0

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False


class TestCallAt:
    """``Simulator.call_at``: a plain call on the (time, seq) heap."""

    def test_runs_at_the_absolute_time_with_its_arguments(self):
        sim = Simulator()
        seen = []
        sim.call_at(2.5, lambda *args: seen.append((sim.now, args)), "a", 1)
        sim.call_at(1.0, seen.append, "first")
        assert sim.peek() == 1.0
        sim.run()
        assert seen == ["first", (2.5, ("a", 1))]

    def test_same_instant_interleaves_with_events_in_call_order(self):
        sim = Simulator()
        order = []
        sim.call_at(1.0, order.append, "call-1")
        sim.timeout(1.0).add_callback(lambda ev: order.append("timeout"))
        sim.call_at(1.0, order.append, "call-2")
        sim.run()
        assert order == ["call-1", "timeout", "call-2"]

    def test_a_call_may_schedule_calls_for_the_same_instant(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.call_at(sim.now, order.append, "nested")

        sim.call_at(1.0, first)
        sim.call_at(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_the_past_is_rejected(self):
        sim = Simulator(start=5.0)
        with pytest.raises(SimTimeError):
            sim.call_at(4.0, print)
        sim.call_at(5.0, print)  # now is fine

    def test_nan_is_rejected(self):
        """A NaN time used to be accepted, and — comparing false with every
        heap key — fired before an entry at 0.5.  It is a typed error now,
        and the heap is untouched."""
        sim = Simulator()
        order = []
        sim.call_at(0.5, order.append, "half")
        with pytest.raises(SimTimeError):
            sim.call_at(NAN, order.append, "nan")
        assert len(sim._heap) == 1
        sim.run()
        assert order == ["half"]

    def test_pushes_one_heap_entry_and_makes_no_event(self):
        sim = Simulator()
        seq = sim._seq
        sim.call_at(1.0, print)
        assert len(sim._heap) == 1 and sim._seq == seq + 1


class TestNamesOnDemand:
    """A name is formatted when it is read — by ``repr``, ``ProcessError``
    or ``SimDeadlock`` — and reads exactly as when it was formatted per
    event created."""

    @staticmethod
    def triggered_twice(ev):
        with pytest.raises(ProcessError) as exc:
            ev.succeed()
            ev.succeed()
        return str(exc.value)

    def test_timeout_names(self):
        sim = Simulator()
        assert self.triggered_twice(sim.timeout(0.5)) == "event timeout(0.5) triggered twice"
        assert self.triggered_twice(sim.timeout(2)) == "event timeout(2) triggered twice"
        assert self.triggered_twice(sim.timeout(1e-7)) == (
            "event timeout(1e-07) triggered twice"
        )
        assert repr(sim.timeout(0.25)) == "<SimEvent timeout(0.25) triggered>"

    def test_unnamed_events_are_numbered_by_creation(self):
        sim = Simulator()
        sim.timeout(1.0)  # takes sequence number 1
        first, second = sim.event(), sim.event()
        # read in the other order: the number was taken at creation
        assert second.name == "event-3" and first.name == "event-2"
        assert self.triggered_twice(sim.event("named")) == "event named triggered twice"

    def test_resource_store_and_hub_names(self):
        from repro.runtime.hub import ChannelHub
        from repro.sim.resources import Resource
        from repro.stm.channel import STMChannel

        sim = Simulator()
        cpu = Resource(sim, capacity=1, name="cpu3")
        assert self.triggered_twice(cpu.request()) == "event cpu3-request triggered twice"
        assert repr(cpu.request()) == "<SimEvent cpu3-request pending>"
        hub = ChannelHub(sim, STMChannel("frames"))
        assert repr(hub.wait_change()) == "<SimEvent frames-changed pending>"

    def test_process_error_and_deadlock_texts(self):
        sim = Simulator()

        def bad():
            yield 3

        sim.process(bad(), name="oops")
        with pytest.raises(ProcessError) as exc:
            sim.run()
        assert str(exc.value) == (
            "process oops yielded 3; processes must yield SimEvent instances"
        )
        # what StaticExecutor raises for placements parked when the heap drains
        dead = SimDeadlock(["T1@4"])
        assert str(dead) == "simulation deadlock: blocked = [T1@4]"

    def test_a_deferred_name_is_not_formatted_until_read(self):
        class Loud:
            reads = 0

            def __format__(self, spec):
                Loud.reads += 1
                return "loud"

        sim = Simulator()
        ev = sim.event(("{}-changed", Loud()))
        ev.succeed()
        sim.run()
        assert Loud.reads == 0
        assert ev.name == "loud-changed" and ev.name == "loud-changed"
        assert Loud.reads == 1


class TestLiveProcessesOnly:
    """The kernel keeps no registry of processes: a generator it drives is
    referenced by the heap entry or the event it waits on, and by nothing
    once it has finished (a long benchmark loop leaks none)."""

    def test_finished_processes_are_forgotten(self):
        sim = Simulator()

        def worker(delay):
            yield sim.timeout(delay)

        gens = [worker(1.0 + i) for i in range(50)]
        refs = [weakref.ref(g) for g in gens]
        for g in gens:
            sim.process(g)
        del gens, g
        sim.run(until=10.5)
        gc.collect()
        assert sum(r() is not None for r in refs) == 40
        sim.run()
        gc.collect()
        assert all(r() is None for r in refs)


class TestDeterminismUnderFailure:
    """Same seed + same fault plan => bit-identical simulation.

    The fault subsystem leans on the engine's (time, seq) total event
    order: injected failures, seeded scheduler jitter, and heartbeat
    monitors must all replay identically, or failover experiments would
    not be reproducible.
    """

    def _run(self):
        from repro.faults import FaultPlan
        from repro.graph.builders import chain_graph
        from repro.runtime.dynamic import DynamicExecutor
        from repro.sched.online import PthreadScheduler
        from repro.sim.cluster import ClusterSpec
        from repro.state import State

        cluster = ClusterSpec(nodes=2, procs_per_node=1)
        plan = FaultPlan.poisson(
            cluster, horizon=10.0, rate=0.2, seed=7, mean_downtime=2.0
        )
        ex = DynamicExecutor(
            chain_graph([0.2, 0.2], period=0.2),
            State(n_models=1),
            cluster,
            PthreadScheduler(quantum=0.01, jitter_seed=11),
            faults=plan,
        )
        return ex.run(horizon=10.0, max_timestamps=20)

    def test_identical_trace_across_runs(self):
        a, b = self._run(), self._run()
        assert a.trace.spans == b.trace.spans
        assert a.trace.items == b.trace.items
        assert a.completion_times == b.completion_times
        assert a.meta["faults_applied"] == b.meta["faults_applied"]
        assert a.meta["dead_procs"] == b.meta["dead_procs"]

    def test_different_seed_diverges(self):
        from repro.faults import FaultPlan
        from repro.sim.cluster import ClusterSpec

        cluster = ClusterSpec(nodes=2, procs_per_node=1)
        a = FaultPlan.poisson(cluster, horizon=50.0, rate=0.5, seed=1)
        b = FaultPlan.poisson(cluster, horizon=50.0, rate=0.5, seed=2)
        assert [e.time for e in a.events] != [e.time for e in b.events]
