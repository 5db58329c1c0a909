"""Unit tests for the decoded operating-plan engine.

Bit-identity against the per-point chain is covered by
``tests/property/test_opplan_differential.py``; this module pins the
plumbing — plan memoization in the characterizer, cache invalidation,
input validation, error parity on bad corners, and the
``optimizer.plan_builds`` counter.
"""

import pytest

from repro import obs
from repro.device.technology import soi_low_vt
from repro.errors import CharacterizationError, DeviceModelError
from repro.tech.characterize import CellCharacterizer
from repro.tech.cells import standard_cells

_CELLS = standard_cells()


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.reset()


class TestPlanMemoization:
    def test_same_corner_returns_same_plan(self):
        characterizer = CellCharacterizer(soi_low_vt())
        inv = _CELLS["INV"]
        first = characterizer.plan_operating(inv, fanout=1)
        second = characterizer.plan_operating(inv, fanout=1)
        assert first is second

    def test_distinct_loads_get_distinct_plans(self):
        characterizer = CellCharacterizer(soi_low_vt())
        inv = _CELLS["INV"]
        fanout_plan = characterizer.plan_operating(inv, fanout=2)
        load_plan = characterizer.plan_operating(inv, load_f=10e-15)
        assert fanout_plan is not load_plan
        assert fanout_plan.fanout == 2
        assert load_plan.load_f == 10e-15

    def test_clear_cache_drops_plans(self):
        characterizer = CellCharacterizer(soi_low_vt())
        inv = _CELLS["INV"]
        stale = characterizer.plan_operating(inv, fanout=1)
        characterizer.clear_cache()
        assert characterizer.plan_operating(inv, fanout=1) is not stale

    def test_uncached_characterizer_builds_fresh_plans(self):
        characterizer = CellCharacterizer(soi_low_vt(), cache=False)
        inv = _CELLS["INV"]
        first = characterizer.plan_operating(inv, fanout=1)
        second = characterizer.plan_operating(inv, fanout=1)
        assert first is not second

    def test_plan_builds_counter(self):
        inv = _CELLS["INV"]
        nand = _CELLS["NAND2"]
        with obs.enabled_scope():
            characterizer = CellCharacterizer(soi_low_vt())
            characterizer.plan_operating(inv, fanout=1)
            characterizer.plan_operating(inv, fanout=1)  # memo hit
            characterizer.plan_operating(nand, fanout=1)
            counters = obs.snapshot()["counters"]
        assert counters["optimizer.plan_builds"] == 2

    def test_plan_builds_counter_uncached(self):
        inv = _CELLS["INV"]
        with obs.enabled_scope():
            characterizer = CellCharacterizer(soi_low_vt(), cache=False)
            characterizer.plan_operating(inv, fanout=1)
            characterizer.plan_operating(inv, fanout=1)
            counters = obs.snapshot()["counters"]
        assert counters["optimizer.plan_builds"] == 2


class TestValidation:
    def test_negative_load_rejected(self):
        characterizer = CellCharacterizer(soi_low_vt())
        with pytest.raises(CharacterizationError, match="load"):
            characterizer.plan_operating(_CELLS["INV"], load_f=-1e-15)

    def test_bad_fanout_rejected(self):
        characterizer = CellCharacterizer(soi_low_vt())
        with pytest.raises(CharacterizationError, match="fanout"):
            characterizer.plan_operating(_CELLS["INV"], fanout=0)

    def test_bad_probability_rejected(self):
        characterizer = CellCharacterizer(soi_low_vt())
        with pytest.raises(
            CharacterizationError, match="output_high_probability"
        ):
            characterizer.plan_operating(
                _CELLS["INV"], output_high_probability=1.5
            )

    def test_planned_fanout_delay_validates_fanout(self):
        characterizer = CellCharacterizer(soi_low_vt())
        with pytest.raises(CharacterizationError, match="fanout"):
            characterizer.planned_fanout_delay(
                _CELLS["INV"], 1.0, fanout=0
            )


class TestErrorParity:
    """Bad V_DD corners raise the same types as the per-point chain."""

    def test_fanout_mode_nonpositive_vdd(self):
        plan = CellCharacterizer(soi_low_vt()).plan_operating(
            _CELLS["INV"], fanout=1
        )
        with pytest.raises(DeviceModelError, match="vdd must be positive"):
            plan.delays([1.0, 0.0])

    def test_fixed_load_mode_nonpositive_vdd(self):
        plan = CellCharacterizer(soi_low_vt()).plan_operating(
            _CELLS["INV"], load_f=10e-15
        )
        with pytest.raises(
            CharacterizationError, match="vdd must be positive"
        ):
            plan.delays([-0.5])

    def test_nan_vdd_rejected(self):
        plan = CellCharacterizer(soi_low_vt()).plan_operating(
            _CELLS["INV"], fanout=1
        )
        with pytest.raises(CharacterizationError, match="vdd must be finite"):
            plan.delays([float("nan")])

    def test_leakages_nonpositive_vdd(self):
        plan = CellCharacterizer(soi_low_vt()).plan_operating(
            _CELLS["INV"]
        )
        with pytest.raises(
            CharacterizationError, match="vdd must be positive"
        ):
            plan.leakages([0.0])
