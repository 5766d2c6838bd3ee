"""Unit tests for the cost model (repro.platform.costs)."""

import pytest

from repro.platform.costs import CostModel, CycleMeter, NULL_METER, NullMeter, Operation
from tests.integration.helpers import cost_fields, merge_meter


class TestCostModel:
    def test_every_operation_has_a_cost(self):
        model = CostModel()
        for operation in Operation:
            assert model.op_cycles[operation] >= 0

    def test_clock_conversion(self):
        model = CostModel(clock_ghz=2.0)
        assert model.cycles_to_ns(2000) == pytest.approx(1000.0)

    def test_with_overrides(self):
        model = CostModel().with_overrides(parse=999.0)
        assert model.parse == 999.0
        assert CostModel().parse != 999.0  # original untouched (frozen)

    def test_frozen(self):
        model = CostModel()
        with pytest.raises(Exception):
            model.parse = 1.0  # type: ignore[misc]

    def test_operation_names_cover_fields(self):
        names = cost_fields()
        for operation in Operation:
            assert operation.value in names

    def test_calibration_anchor_single_nf_hop(self):
        # DESIGN.md anchor: an IPFilter hop on BESS ~= 530 cycles
        # (dispatch + parse + flow lookup + verdict-ish work).
        model = CostModel()
        hop = model.nf_dispatch + model.parse + model.exact_match_lookup
        assert 300 <= hop <= 700


class TestCycleMeter:
    def test_charges_accumulate(self):
        meter = CycleMeter()
        meter.charge(Operation.PARSE)
        meter.charge(Operation.PARSE, 2)
        assert meter.count(Operation.PARSE) == 3

    def test_cycles_conversion(self):
        model = CostModel()
        meter = CycleMeter()
        meter.charge(Operation.PARSE, 2)
        meter.charge_cycles(100)
        assert meter.cycles(model) == pytest.approx(2 * model.parse + 100)

    def test_zero_charge_ignored(self):
        meter = CycleMeter()
        meter.charge(Operation.PARSE, 0)
        assert Operation.PARSE not in meter.counts

    def test_merge(self):
        a = CycleMeter()
        a.charge(Operation.PARSE)
        a.charge_cycles(10)
        b = CycleMeter()
        b.charge(Operation.PARSE, 2)
        b.charge(Operation.NIC_RX)
        b.charge_cycles(5)
        merge_meter(a, b)
        assert a.count(Operation.PARSE) == 3
        assert a.count(Operation.NIC_RX) == 1
        assert a.direct_cycles == 15

    def test_copy_is_independent(self):
        meter = CycleMeter()
        meter.charge(Operation.PARSE)
        copy = meter.copy()
        copy.charge(Operation.PARSE)
        assert meter.count(Operation.PARSE) == 1
        assert copy.count(Operation.PARSE) == 2

    def test_reset(self):
        meter = CycleMeter()
        meter.charge(Operation.PARSE)
        meter.charge_cycles(5)
        meter.reset()
        assert meter.cycles(CostModel()) == 0

    def test_null_meter_records_nothing(self):
        NULL_METER.charge(Operation.PARSE, 100)
        NULL_METER.charge_cycles(1e9)
        assert NULL_METER.cycles(CostModel()) == 0
        assert isinstance(NULL_METER, NullMeter)
