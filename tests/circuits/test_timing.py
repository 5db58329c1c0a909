"""Unit tests for static timing analysis."""

import pytest

from repro.circuits.builders import (
    carry_select_adder,
    ring_oscillator,
    ripple_carry_adder,
)
from repro.circuits.timing import StaticTimingAnalyzer
from repro.device.technology import soi_low_vt
from repro.errors import NetlistError


@pytest.fixture(scope="module")
def analyzer():
    return StaticTimingAnalyzer(soi_low_vt())


@pytest.fixture(scope="module")
def adder8():
    return ripple_carry_adder(8)


class TestCriticalPath:
    def test_delay_positive(self, analyzer, adder8):
        result = analyzer.analyze(adder8, vdd=1.0)
        assert result.delay_s > 0.0

    def test_critical_path_ends_at_an_output(self, analyzer, adder8):
        result = analyzer.analyze(adder8, vdd=1.0)
        assert result.path_nets[-1] in adder8.primary_outputs

    def test_critical_path_starts_at_an_input(self, analyzer, adder8):
        result = analyzer.analyze(adder8, vdd=1.0)
        first = result.path_nets[0]
        assert first in adder8.primary_inputs or first in adder8.constants

    def test_ripple_carry_depth_grows_with_width(self, analyzer):
        short = analyzer.analyze(ripple_carry_adder(4), vdd=1.0)
        long = analyzer.analyze(ripple_carry_adder(16), vdd=1.0)
        assert long.delay_s > 2.0 * short.delay_s
        assert long.depth > short.depth

    def test_carry_select_faster_than_ripple(self, analyzer):
        ripple = analyzer.analyze(ripple_carry_adder(16), vdd=1.0)
        select = analyzer.analyze(carry_select_adder(16, 4), vdd=1.0)
        assert select.delay_s < ripple.delay_s

    def test_delay_falls_with_vdd(self, analyzer, adder8):
        slow = analyzer.analyze(adder8, vdd=0.6).delay_s
        fast = analyzer.analyze(adder8, vdd=1.5).delay_s
        assert fast < slow

    def test_delay_falls_with_lower_vt(self, analyzer, adder8):
        high_vt = analyzer.analyze(adder8, vdd=0.8, vt_shift=0.1).delay_s
        low_vt = analyzer.analyze(adder8, vdd=0.8, vt_shift=-0.1).delay_s
        assert low_vt < high_vt

    def test_arrival_times_monotone_along_path(self, analyzer, adder8):
        result = analyzer.analyze(adder8, vdd=1.0)
        arrivals = [result.arrival_times[net] for net in result.path_nets]
        assert arrivals == sorted(arrivals)

    def test_cyclic_netlist_rejected(self, analyzer):
        with pytest.raises(NetlistError, match="cycle"):
            analyzer.analyze(ring_oscillator(3), vdd=1.0)


class TestCycleTime:
    def test_overhead_applied(self, analyzer, adder8):
        bare = analyzer.analyze(adder8, 1.0).delay_s
        cycle = analyzer.min_cycle_time(adder8, 1.0, sequencing_overhead=0.2)
        assert cycle == pytest.approx(1.2 * bare)

    def test_max_frequency_inverse(self, analyzer, adder8):
        cycle = analyzer.min_cycle_time(adder8, 1.0)
        assert analyzer.max_frequency(adder8, 1.0) == pytest.approx(
            1.0 / cycle
        )

    def test_negative_overhead_rejected(self, analyzer, adder8):
        with pytest.raises(NetlistError):
            analyzer.min_cycle_time(adder8, 1.0, sequencing_overhead=-0.1)


class TestNonFiniteInputs:
    """Each of these once slipped through as a NaN, infinite or
    meaningless result instead of an error."""

    def test_nan_size_factor_rejected(self, analyzer, adder8):
        gate = next(iter(adder8.instances))
        with pytest.raises(NetlistError, match="size factors"):
            analyzer.analyze(
                adder8, 1.0, per_instance_size_factors={gate: float("nan")}
            )

    def test_infinite_size_factor_rejected(self, analyzer, adder8):
        gate = next(iter(adder8.instances))
        with pytest.raises(NetlistError, match="size factors"):
            analyzer.analyze(
                adder8, 1.0, per_instance_size_factors={gate: float("inf")}
            )

    def test_nan_size_factor_rejected_by_slacks(self, analyzer, adder8):
        gate = next(iter(adder8.instances))
        with pytest.raises(NetlistError, match="size factors"):
            analyzer.slacks(
                adder8, 1.0, per_instance_size_factors={gate: float("nan")}
            )

    def test_nan_sequencing_overhead_rejected(self, analyzer, adder8):
        with pytest.raises(NetlistError, match="sequencing_overhead"):
            analyzer.min_cycle_time(
                adder8, 1.0, sequencing_overhead=float("nan")
            )

    def test_nan_required_time_rejected(self, analyzer, adder8):
        with pytest.raises(NetlistError, match="required_time_s"):
            analyzer.slacks(adder8, 1.0, required_time_s=float("nan"))

    @pytest.mark.parametrize("length", [float("nan"), float("inf"), -1.0])
    def test_bad_wire_length_rejected_at_construction(self, length):
        with pytest.raises(NetlistError, match="wire_length_per_fanout_um"):
            StaticTimingAnalyzer(
                soi_low_vt(), wire_length_per_fanout_um=length
            )


class TestTimingPlan:
    def test_plan_compiled_once_per_revision(self, analyzer):
        netlist = ripple_carry_adder(4)
        plan = analyzer._plan(netlist)
        analyzer.analyze(netlist, 1.0)
        analyzer.slacks(netlist, 0.8)
        assert analyzer._plan(netlist) is plan
        netlist.add_input("spare")
        assert analyzer._plan(netlist) is not plan
