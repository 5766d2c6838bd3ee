"""Additional discrete-event engine coverage (repro.sim)."""

import pytest

from repro.sim import Engine, SimulationError, Timeout


class TestScheduleApi:
    def test_callbacks_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(5.0, lambda: order.append("late"))
        engine.schedule(1.0, lambda: order.append("early"))
        engine.run()
        assert order == ["early", "late"]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_callback_may_schedule_more(self):
        engine = Engine()
        seen = []

        def chain(depth):
            seen.append(engine.now)
            if depth:
                engine.schedule(2.0, lambda: chain(depth - 1))

        engine.schedule(1.0, lambda: chain(2))
        engine.run()
        assert seen == [1.0, 3.0, 5.0]

    def test_run_with_empty_queue_returns_now(self):
        engine = Engine()
        assert engine.run() == 0.0


class TestProcessLifecycle:
    def test_repr_states(self):
        engine = Engine()

        def named():
            yield Timeout(1.0)

        process = engine.add_process(named(), name="my-proc")
        assert "my-proc" in repr(process)
        assert "running" in repr(process)
        engine.run()
        assert "finished" in repr(process)

