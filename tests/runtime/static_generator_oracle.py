"""The generator placement body ``StaticExecutor.run`` had before the
callback replay, kept verbatim as the differential oracle
(``test_static_diff.py``): one generator ``Process`` per placement per
frame, every process and ``done`` event of the run created at t = 0,
capacity-1 :class:`~repro.sim.resources.Resource` processors, the blocking
generator forms of ``SimWorld.emit`` / ``ChannelHub.put`` /
``LinkFabric.transfer``.  It runs on the same kernel, hub and STM as the
executor under test, so what the comparison isolates is the body.

Only the sim path is kept: :class:`GeneratorStaticExecutor` is for
``runtime="sim"`` without ``faults=``.
"""

from __future__ import annotations

from repro.errors import ExecutorConfigError
from repro.runtime.dispatch import FlatPlacement, FlatSchedule, build_task_plans
from repro.runtime.hub import SimWorld, build_hubs
from repro.runtime.result import ExecutionResult
from repro.runtime.static_exec import StaticExecutor
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.sim.trace import TraceRecorder

_EPS = 1e-9


class GeneratorStaticExecutor(StaticExecutor):
    """:class:`StaticExecutor` with the replaced ``run`` body."""

    def run(self, iterations: int) -> ExecutionResult:
        """Execute ``iterations`` timestamps and drain."""
        if iterations < 1:
            raise ExecutorConfigError(f"iterations must be >= 1, got {iterations}")
        assert self.runtime == "sim" and self.faults is None
        obs = self.obs
        if obs is not None:
            from repro.obs.calibrate import tier_name

            obs.on_period(self.schedule.period)
        sim = Simulator()
        trace = TraceRecorder()
        # Flat dispatch tables: schedule lookups and channel classification
        # compiled once, outside the per-iteration loop.
        flat = FlatSchedule(self.schedule)
        world = SimWorld(
            self.graph, self.state, self.cluster, sim, trace,
            build_hubs(sim, self.graph, trace, obs=obs),
            build_task_plans(self.graph), obs,
        )
        fabric = None
        if self.contended:
            from repro.sim.fabric import LinkFabric

            fabric = LinkFabric(sim, self.cluster, self.comm)
        procs = {
            p.index: Resource(sim, capacity=1, name=f"cpu{p.index}")
            for p in self.cluster.processors
        }

        done: dict[tuple[int, str], "object"] = {}
        for k in range(iterations):
            for pl in self.schedule.iteration.placements:
                done[(k, pl.task)] = sim.event(f"done:{k}:{pl.task}")

        slips = [0]
        max_slip = [0.0]

        edges = world.edges
        record_exec, emit, retire = world.record_exec, world.emit, world.retire

        def run_placement(k: int, pl: FlatPlacement):
            # ``pl`` comes from instantiate(k): start is absolute, procs are
            # already rotated for iteration k.
            scheduled_start = pl.start
            # Wait for predecessor data plus communication; transfers begin
            # the moment a predecessor finishes, overlapping any slack
            # before the scheduled start.
            if fabric is None:
                ready = scheduled_start
                for pred, nbytes, channels in edges[pl.task]:
                    pred_end = yield done[(k, pred)]
                    src_primary = flat.primary(pred, k)
                    delay = self.comm.transfer_time(nbytes, src_primary, pl.procs[0])
                    if obs is not None and delay > 0:
                        obs.on_comm(
                            channels,
                            tier_name(self.cluster, src_primary, pl.procs[0]),
                            pred_end,
                            delay,
                            nbytes=nbytes,
                            timestamp=k,
                        )
                    ready = max(ready, pred_end + delay)
                if sim.now < ready:
                    yield sim.timeout(ready - sim.now)
            else:
                # Contended mode: fetch each input over the shared links
                # (sequentially — a task pulls its inputs one by one).
                for pred, nbytes, _channels in edges[pl.task]:
                    yield done[(k, pred)]
                    yield from fabric.transfer(
                        nbytes, flat.primary(pred, k), pl.procs[0]
                    )
            if sim.now < scheduled_start:
                yield sim.timeout(scheduled_start - sim.now)
            # Acquire scheduled processors (ascending order avoids deadlock).
            grants = []
            for proc in sorted(pl.procs):
                grant = yield procs[proc].request()
                grants.append((proc, grant))
            start = sim.now
            if start > scheduled_start + _EPS:
                slips[0] += 1
                max_slip[0] = max(max_slip[0], start - scheduled_start)
                if obs is not None:
                    obs.on_slip(pl.task, start, start - scheduled_start, timestamp=k)
            if pl.duration > 0:
                yield sim.timeout(pl.duration)
            end = sim.now
            record_exec(pl.task, k, pl.procs, start, end, pl.variant)
            for proc, grant in grants:
                procs[proc].release(grant)
            yield from emit(pl.task, k)
            retire(pl.task, k, end)
            done[(k, pl.task)].succeed(end)

        for k, rows in flat.iter_iterations(iterations):
            # Iteration k: same pattern, rotated processors (Figure 6 step 3).
            for pl in rows:
                sim.process(run_placement(k, pl), name=f"{pl.task}@{k}")

        sim.run(check_deadlock=True)

        return world.result(
            trace.makespan,
            iterations,
            {
                "slips": slips[0],
                "max_slip": max_slip[0],
                "period": self.schedule.period,
                "shift": self.schedule.shift,
                "contended_time": fabric.contended_time if fabric else 0.0,
                "transfers": fabric.transfers if fabric else 0,
            },
        )
