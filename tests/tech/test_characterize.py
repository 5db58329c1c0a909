"""Unit tests for the cell characterization engine."""

import pytest

from repro.device.technology import soi_low_vt, soias_technology
from repro.errors import CharacterizationError
from repro.tech.cells import standard_cells
from repro.tech.characterize import CellCharacterizer


@pytest.fixture(scope="module")
def tech():
    return soi_low_vt()


@pytest.fixture(scope="module")
def characterizer(tech):
    return CellCharacterizer(tech)


@pytest.fixture(scope="module")
def cells():
    return standard_cells()


class TestDrive:
    def test_pull_up_weaker_than_pull_down_for_inverter(
        self, characterizer, cells
    ):
        inv = cells["INV"]
        down = characterizer.pull_down_current(inv, 1.0)
        up = characterizer.pull_up_current(inv, 1.0)
        # P/N width ratio 2 does not fully compensate the mobility
        # ratio 0.45 used by the technology factories.
        assert up < down

    def test_drive_rises_with_vdd(self, characterizer, cells):
        inv = cells["INV"]
        currents = [
            characterizer.pull_down_current(inv, 0.4 + 0.2 * i)
            for i in range(8)
        ]
        assert currents == sorted(currents)

    def test_vt_shift_changes_drive(self, characterizer, cells):
        inv = cells["INV"]
        faster = characterizer.pull_down_current(inv, 1.0, vt_shift=-0.1)
        slower = characterizer.pull_down_current(inv, 1.0, vt_shift=0.1)
        assert faster > characterizer.pull_down_current(inv, 1.0) > slower


class TestDelay:
    def test_delay_positive_and_falls_with_vdd(self, characterizer, cells):
        inv = cells["INV"]
        load = 10e-15
        delays = [
            characterizer.propagation_delay(inv, 0.5 + 0.25 * i, load)
            for i in range(7)
        ]
        assert all(d > 0.0 for d in delays)
        assert delays == sorted(delays, reverse=True)

    def test_delay_rises_with_load(self, characterizer, cells):
        inv = cells["INV"]
        assert characterizer.propagation_delay(
            inv, 1.0, 50e-15
        ) > characterizer.propagation_delay(inv, 1.0, 5e-15)

    def test_subthreshold_operation_is_slow_but_finite(
        self, characterizer, cells
    ):
        inv = cells["INV"]
        # V_DD below V_T = 0.184 V: the device runs on subthreshold
        # current only.
        sub = characterizer.propagation_delay(inv, 0.15, 1e-15)
        normal = characterizer.propagation_delay(inv, 1.0, 1e-15)
        assert sub > 10.0 * normal

    def test_lower_vt_shortens_delay(self, characterizer, cells):
        inv = cells["INV"]
        fast = characterizer.propagation_delay(inv, 0.6, 5e-15, vt_shift=-0.1)
        slow = characterizer.propagation_delay(inv, 0.6, 5e-15, vt_shift=0.1)
        assert fast < slow

    def test_fanout_delay_grows_with_fanout(self, characterizer, cells):
        inv = cells["INV"]
        fo1 = characterizer.fanout_delay(inv, 1.0, fanout=1)
        fo4 = characterizer.fanout_delay(inv, 1.0, fanout=4)
        assert fo4 > 2.0 * fo1

    def test_negative_load_rejected(self, characterizer, cells):
        with pytest.raises(CharacterizationError, match="load"):
            characterizer.propagation_delay(cells["INV"], 1.0, -1e-15)

    def test_bad_fanout_rejected(self, characterizer, cells):
        with pytest.raises(CharacterizationError, match="fanout"):
            characterizer.fanout_delay(cells["INV"], 1.0, fanout=0)

    def test_nonpositive_vdd_rejected(self, characterizer, cells):
        with pytest.raises(CharacterizationError, match="vdd"):
            characterizer.propagation_delay(cells["INV"], 0.0, 1e-15)

    def test_nan_vdd_fanout_delay_rejected(self, cells):
        characterizer = CellCharacterizer(soi_low_vt())
        with pytest.raises(CharacterizationError, match="vdd must be finite"):
            characterizer.fanout_delay(cells["INV"], float("nan"))
        assert characterizer.cache_size == 0

    @pytest.mark.parametrize("shift", [float("nan"), float("inf")])
    def test_non_finite_vt_shift_delay_rejected(self, cells, shift):
        characterizer = CellCharacterizer(soi_low_vt())
        with pytest.raises(
            CharacterizationError, match="vt_shift must be finite"
        ):
            characterizer.propagation_delay(
                cells["INV"], 0.6, 1e-15, vt_shift=shift
            )
        assert characterizer.cache_size == 0


class TestEnergy:
    def test_energy_scales_with_vdd_squared(self, characterizer, cells):
        inv = cells["INV"]
        # Fix the load well above the (voltage-dependent) self cap to
        # expose the V^2 law.
        load = 1e-12
        e1 = characterizer.energy_per_transition(inv, 1.0, load)
        e2 = characterizer.energy_per_transition(inv, 2.0, load)
        assert e2 / e1 == pytest.approx(4.0, rel=0.05)

    def test_energy_includes_self_capacitance(self, characterizer, cells):
        inv = cells["INV"]
        assert characterizer.energy_per_transition(inv, 1.0, 0.0) > 0.0


class TestShortCircuit:
    def test_zero_when_rails_cannot_overlap(self, cells):
        tech = soi_low_vt(vt0=0.3)
        characterizer = CellCharacterizer(tech)
        # V_DD < V_Tn + V_Tp = 0.6 V: no short-circuit path.
        energy = characterizer.short_circuit_energy(
            cells["INV"], 0.55, 10e-15, 100e-12
        )
        assert energy == 0.0

    def test_grows_with_transition_time(self, characterizer, cells):
        slow = characterizer.short_circuit_energy(
            cells["INV"], 1.0, 10e-15, 1e-9
        )
        fast = characterizer.short_circuit_energy(
            cells["INV"], 1.0, 10e-15, 1e-10
        )
        assert slow == pytest.approx(10.0 * fast)

    def test_small_fraction_of_switching_energy(self, characterizer, cells):
        # Paper: with matched rise/fall times short-circuit stays
        # below ~10 % of the switching component.
        inv = cells["INV"]
        vdd, load = 1.0, 10e-15
        switching = characterizer.energy_per_transition(inv, vdd, load)
        transition = characterizer.propagation_delay(inv, vdd, load)
        sc = characterizer.short_circuit_energy(inv, vdd, load, transition)
        assert sc < 0.1 * switching


class TestLeakage:
    def test_leakage_positive(self, characterizer, cells):
        assert characterizer.leakage_current(cells["INV"], 1.0) > 0.0

    def test_stacked_cells_leak_less_per_network(self, characterizer, cells):
        # NAND2 pull-down is a 2-stack of double-width devices; with
        # output high it still leaks less than two INV pull-downs.
        inv_leak = characterizer.leakage_current(
            cells["INV"], 1.0, output_high_probability=1.0
        )
        nand_leak = characterizer.leakage_current(
            cells["NAND2"], 1.0, output_high_probability=1.0
        )
        assert nand_leak < 2.0 * inv_leak

    def test_vt_shift_suppresses_leakage_exponentially(
        self, characterizer, cells
    ):
        inv = cells["INV"]
        active = characterizer.leakage_current(inv, 1.0, vt_shift=0.0)
        standby = characterizer.leakage_current(inv, 1.0, vt_shift=0.264)
        # 264 mV at 66 mV/dec = 4 decades.
        assert active / standby == pytest.approx(1e4, rel=0.35)

    def test_invalid_probability_rejected(self, characterizer, cells):
        with pytest.raises(CharacterizationError, match="probability"):
            characterizer.leakage_current(
                cells["INV"], 1.0, output_high_probability=-0.1
            )

    def test_infinite_vdd_rejected(self, characterizer, cells):
        with pytest.raises(CharacterizationError, match="vdd must be finite"):
            characterizer.leakage_current(cells["INV"], float("inf"))

    @pytest.mark.parametrize("shift", [float("nan"), float("-inf")])
    def test_non_finite_vt_shift_rejected(self, cells, shift):
        characterizer = CellCharacterizer(soi_low_vt())
        with pytest.raises(
            CharacterizationError, match="vt_shift must be finite"
        ):
            characterizer.leakage_current(cells["INV"], 0.6, vt_shift=shift)
        assert characterizer.cache_size == 0


class TestCharacterizeRecord:
    def test_record_fields_consistent(self, characterizer, cells):
        inv = cells["INV"]
        record = characterizer.characterize(inv, 1.2, load_f=8e-15)
        assert record.cell_name == "INV"
        assert record.vdd == 1.2
        assert record.delay_s == pytest.approx(
            characterizer.propagation_delay(inv, 1.2, 8e-15)
        )
        assert record.leakage_power_w == pytest.approx(
            record.leakage_current_a * 1.2
        )

    def test_soias_standby_vs_active_characterization(self, cells):
        tech = soias_technology()
        characterizer = CellCharacterizer(tech)
        inv = cells["INV"]
        active_shift = tech.back_gate.vt_shift_at(3.0)
        active = characterizer.characterize(inv, 1.0, vt_shift=active_shift)
        standby = characterizer.characterize(inv, 1.0, vt_shift=0.0)
        assert active.delay_s < standby.delay_s
        assert active.leakage_current_a > standby.leakage_current_a
