"""Unit tests for Resource."""

from __future__ import annotations

import pytest

from repro.errors import ProcessError
from repro.sim.engine import Simulator
from repro.sim.resources import Resource


class TestResource:
    def test_grants_up_to_capacity_immediately(self):
        sim = Simulator()
        r = Resource(sim, capacity=2)
        e1, e2, e3 = r.request(), r.request(), r.request()
        assert e1.triggered and e2.triggered and not e3.triggered
        assert r.in_use == 2 and r.queue_length == 1

    def test_release_wakes_fifo(self):
        sim = Simulator()
        r = Resource(sim, capacity=1)
        order = []

        def job(name, work):
            def granted(grant):
                sim.call_at(sim.now + work, done, grant)

            def done(grant):
                order.append(name)
                r.release(grant)

            r.request().add_callback(granted)

        for name in ("a", "b", "c"):
            job(name, 1.0)
        sim.run()
        assert order == ["a", "b", "c"] and sim.now == 3.0

    def test_release_idle_raises(self):
        sim = Simulator()
        r = Resource(sim, capacity=1)
        with pytest.raises(ProcessError):
            r.release()

    def test_capacity_validation(self):
        with pytest.raises(ProcessError):
            Resource(Simulator(), capacity=0)

    def test_available_accounting(self):
        sim = Simulator()
        r = Resource(sim, capacity=3)
        g = r.request()
        assert r.available == 2
        r.release(g)
        assert r.available == 3
