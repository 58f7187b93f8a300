"""Unit tests for the simulated multicomputer."""

import gc
import weakref

import numpy as np
import pytest

from repro.machine import (
    Machine,
    MeshTopology,
    Phase,
    RingTopology,
    SwitchTopology,
    unit_cost_model,
)


@pytest.fixture
def machine():
    return Machine(4, cost=unit_cost_model())


class TestCharging:
    def test_host_ops_charge(self, machine):
        t = machine.charge_host_ops(25, Phase.COMPRESSION)
        assert t == 25.0
        assert machine.t_compression == 25.0

    def test_proc_ops_parallel_semantics(self, machine):
        machine.charge_proc_ops(0, 10, Phase.COMPRESSION)
        machine.charge_proc_ops(1, 30, Phase.COMPRESSION)
        machine.charge_proc_ops(2, 20, Phase.COMPRESSION)
        assert machine.t_compression == 30.0  # max over processors

    def test_mixed_host_and_proc(self, machine):
        machine.charge_host_ops(5, Phase.DISTRIBUTION)
        machine.charge_proc_ops(3, 7, Phase.DISTRIBUTION)
        assert machine.t_distribution == 12.0

    def test_bad_rank_rejected(self, machine):
        with pytest.raises(ValueError, match="out of range"):
            machine.charge_proc_ops(4, 1, Phase.COMPUTE)


class TestMessaging:
    def test_send_charges_startup_plus_elements(self, machine):
        payload = np.arange(6)
        t = machine.send(2, payload, 6, Phase.DISTRIBUTION)
        assert t == 1.0 + 6.0
        assert machine.t_distribution == 7.0

    def test_send_delivers_payload_by_reference(self, machine):
        payload = np.arange(3)
        machine.send(1, payload, 3, Phase.DISTRIBUTION, tag="x")
        assert machine.processor(1).receive("x").payload is payload

    def test_sequential_sends_sum(self, machine):
        for r in range(4):
            machine.send(r, None, 10, Phase.DISTRIBUTION)
        assert machine.t_distribution == 4 * (1.0 + 10.0)

    def test_ring_topology_multiplies_element_cost(self):
        m = Machine(4, cost=unit_cost_model(), topology=RingTopology(4))
        t = m.send(1, None, 10, Phase.DISTRIBUTION)  # host->1 is 2 hops
        assert t == 1.0 + 20.0

    def test_send_to_host_and_receive(self, machine):
        machine.send_to_host(2, "result", 5, Phase.COMPUTE, tag="back")
        msg = machine.host_receive("back")
        assert msg.payload == "result" and msg.src == 2
        assert machine.trace.elapsed(Phase.COMPUTE) == 6.0

    def test_host_receive_empty_raises(self, machine):
        with pytest.raises(LookupError, match="host"):
            machine.host_receive()

    def test_negative_elements_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.send(0, None, -1, Phase.COMPUTE)
        with pytest.raises(ValueError):
            machine.send_to_host(0, None, -1, Phase.COMPUTE)

    def test_bad_destination_rejected(self, machine):
        with pytest.raises(ValueError, match="out of range"):
            machine.send(9, None, 1, Phase.COMPUTE)


class TestLifecycle:
    def test_reset_clears_state(self, machine):
        machine.charge_host_ops(5, Phase.COMPUTE)
        machine.send(0, "x", 1, Phase.COMPUTE)
        machine.send_to_host(1, "y", 1, Phase.COMPUTE)
        machine.host_memory["m"] = 1
        machine.reset()
        assert len(machine.trace) == 0
        assert machine.host_memory == {}
        assert machine.host_mailbox == []
        assert machine.processor(0).mailbox == []

    def test_topology_size_must_match(self):
        with pytest.raises(ValueError, match="sized for"):
            Machine(4, topology=SwitchTopology(8))

    def test_invalid_proc_count(self):
        with pytest.raises(ValueError):
            Machine(0)

    def test_default_is_sp2_switch(self):
        m = Machine(3)
        assert isinstance(m.topology, SwitchTopology)
        assert m.cost.data_op_ratio == pytest.approx(1.2)

    def test_mesh_topology_accepted(self):
        m = Machine(6, topology=MeshTopology(6, (2, 3)))
        assert m.topology.mesh_shape == (2, 3)

    def test_repr(self, machine):
        assert "p=4" in repr(machine)

    @pytest.mark.parametrize("faulty", [False, True])
    def test_dropped_machine_is_freed_at_once(self, faulty):
        # the machine owns its link; a link that referenced the machine
        # strongly would leave every dropped machine, and the arrays its
        # processors hold, to the cyclic collector
        from repro.faults import FaultInjector, FaultSpec

        injector = FaultInjector(FaultSpec.lossy(0.1), seed=1) if faulty else None
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            m = Machine(2, faults=injector)
            m.send(0, np.arange(4.0), 4, Phase.DISTRIBUTION)
            ref = weakref.ref(m)
            del m
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
