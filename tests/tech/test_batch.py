"""Tests for the decoded batch-evaluation plan (VariationPlan)."""

import pytest

from repro import obs
from repro.device.technology import bulk_cmos_06um, soi_low_vt
from repro.errors import CharacterizationError
from repro.tech.batch import VariationPlan
from repro.tech.characterize import CellCharacterizer
from repro.tech.cells import standard_cells

SHIFTS = [0.0, 0.02, -0.03, 0.051, -0.0149, 0.1, -0.08]


@pytest.fixture(scope="module")
def cells():
    return standard_cells()


@pytest.fixture
def characterizer():
    return CellCharacterizer(soi_low_vt())


class TestBitIdentity:
    @pytest.mark.parametrize("name", ["INV", "NAND2", "NOR3", "AOI21"])
    @pytest.mark.parametrize("vdd", [0.4, 0.8, 1.5])
    def test_delays_match_per_sample_path(
        self, characterizer, cells, name, vdd
    ):
        cell = cells[name]
        plan = characterizer.plan_variation(cell, vdd, 10e-15)
        reference = CellCharacterizer(soi_low_vt())
        expected = [
            reference.propagation_delay(cell, vdd, 10e-15, vt_shift=s)
            for s in SHIFTS
        ]
        assert plan.delays(SHIFTS) == expected

    @pytest.mark.parametrize("name", ["INV", "NAND2", "NOR3", "AOI21"])
    @pytest.mark.parametrize("vdd", [0.4, 0.8, 1.5])
    def test_leakages_match_per_sample_path(
        self, characterizer, cells, name, vdd
    ):
        cell = cells[name]
        plan = characterizer.plan_variation(cell, vdd)
        reference = CellCharacterizer(soi_low_vt())
        expected = [
            reference.leakage_current(cell, vdd, vt_shift=s)
            for s in SHIFTS
        ]
        assert plan.leakages(SHIFTS) == expected

    def test_output_high_probability_weighting(self, characterizer, cells):
        cell = cells["NAND2"]
        plan = characterizer.plan_variation(
            cell, 0.9, output_high_probability=0.8
        )
        reference = CellCharacterizer(soi_low_vt())
        expected = [
            reference.leakage_current(
                cell, 0.9, vt_shift=s, output_high_probability=0.8
            )
            for s in SHIFTS
        ]
        assert plan.leakages(SHIFTS) == expected

    def test_other_technology(self, cells):
        characterizer = CellCharacterizer(bulk_cmos_06um())
        plan = characterizer.plan_variation(cells["NOR2"], 1.2, 5e-15)
        reference = CellCharacterizer(bulk_cmos_06um())
        assert plan.delays(SHIFTS) == [
            reference.propagation_delay(
                cells["NOR2"], 1.2, 5e-15, vt_shift=s
            )
            for s in SHIFTS
        ]
        assert plan.leakages(SHIFTS) == [
            reference.leakage_current(cells["NOR2"], 1.2, vt_shift=s)
            for s in SHIFTS
        ]

    def test_scalar_conveniences_match_vector_loop(
        self, characterizer, cells
    ):
        plan = characterizer.plan_variation(cells["INV"], 0.7, 10e-15)
        assert plan.delay(0.02) == plan.delays([0.02])[0]
        assert plan.leakage(0.02) == plan.leakages([0.02])[0]

    def test_interleaving_with_per_sample_calls_on_one_characterizer(
        self, characterizer, cells
    ):
        # The plan shares its characterizer's stack-leakage memos, so
        # mixing plan and per-sample calls in any order must agree
        # with a pure per-sample run.
        cell = cells["NAND3"]
        reference = CellCharacterizer(soi_low_vt())
        expected = [
            reference.leakage_current(cell, 0.6, vt_shift=s)
            for s in SHIFTS
        ]
        plan = characterizer.plan_variation(cell, 0.6)
        first = plan.leakages(SHIFTS[:3])
        middle = [
            characterizer.leakage_current(cell, 0.6, vt_shift=s)
            for s in SHIFTS[3:5]
        ]
        last = plan.leakages(SHIFTS[5:])
        assert first + middle + last == expected


class TestPlanMemo:
    def test_same_corner_returns_same_plan(self, characterizer, cells):
        first = characterizer.plan_variation(cells["INV"], 0.8, 10e-15)
        again = characterizer.plan_variation(cells["INV"], 0.8, 10e-15)
        assert first is again

    def test_distinct_corners_get_distinct_plans(
        self, characterizer, cells
    ):
        a = characterizer.plan_variation(cells["INV"], 0.8, 10e-15)
        b = characterizer.plan_variation(cells["INV"], 0.9, 10e-15)
        c = characterizer.plan_variation(cells["NAND2"], 0.8, 10e-15)
        assert a is not b and a is not c

    def test_clear_cache_invalidates_plans(self, characterizer, cells):
        first = characterizer.plan_variation(cells["INV"], 0.8, 10e-15)
        characterizer.clear_cache()
        again = characterizer.plan_variation(cells["INV"], 0.8, 10e-15)
        assert first is not again
        assert again.delays(SHIFTS) == first.delays(SHIFTS)

    def test_uncached_characterizer_builds_fresh_plans(self, cells):
        characterizer = CellCharacterizer(soi_low_vt(), cache=False)
        first = characterizer.plan_variation(cells["INV"], 0.8)
        again = characterizer.plan_variation(cells["INV"], 0.8)
        assert first is not again


class TestValidation:
    def test_bad_vdd_rejected(self, characterizer, cells):
        with pytest.raises(CharacterizationError):
            characterizer.plan_variation(cells["INV"], 0.0)

    def test_negative_load_rejected(self, characterizer, cells):
        with pytest.raises(CharacterizationError, match="load"):
            characterizer.plan_variation(cells["INV"], 1.0, -1e-15)

    def test_nan_shift_rejected(self, characterizer, cells):
        plan = characterizer.plan_variation(cells["INV"], 0.6)
        with pytest.raises(
            CharacterizationError, match="vt_shift must be finite"
        ):
            plan.delays([float("nan")])

    def test_bad_probability_rejected(self, characterizer, cells):
        with pytest.raises(
            CharacterizationError, match="output_high_probability"
        ):
            characterizer.plan_variation(
                cells["INV"], 1.0, output_high_probability=1.5
            )


class TestObservability:
    def test_plan_builds_counted_on_miss_only(self, cells):
        with obs.enabled_scope():
            characterizer = CellCharacterizer(soi_low_vt())
            characterizer.plan_variation(cells["INV"], 0.8)
            characterizer.plan_variation(cells["INV"], 0.8)
            characterizer.plan_variation(cells["INV"], 0.9)
            assert obs.counter_value("variation.plan_builds") == 2

    def test_samples_batched_counts_evaluations(self, cells):
        with obs.enabled_scope():
            characterizer = CellCharacterizer(soi_low_vt())
            plan = characterizer.plan_variation(cells["INV"], 0.8, 1e-15)
            plan.delays(SHIFTS)
            plan.leakages(SHIFTS[:4])
            assert obs.counter_value("variation.samples_batched") == (
                len(SHIFTS) + 4
            )


class TestDirectBuild:
    def test_classmethod_matches_characterizer_entry_point(
        self, characterizer, cells
    ):
        plan = VariationPlan.build(
            characterizer, cells["NAND2"], 0.7, 10e-15
        )
        via_api = characterizer.plan_variation(cells["NAND2"], 0.7, 10e-15)
        assert plan.delays(SHIFTS) == via_api.delays(SHIFTS)
        assert plan.leakages(SHIFTS) == via_api.leakages(SHIFTS)
