"""Integration tests for the end-to-end design flow (Section 5)."""

import functools

import pytest

from repro.core.flow import LowVoltageDesignFlow
from repro.core.scenarios import (
    continuous_scenario,
    standard_datapath,
    xserver_scenario,
)
from repro.errors import AnalysisError
from repro.isa.profiler import profile_program
from repro.isa.workloads import espresso_like, idea, li_like


@pytest.fixture(scope="module")
def flow():
    return LowVoltageDesignFlow(vdd=1.0, clock_hz=1e6)


@pytest.fixture(scope="module")
def datapath():
    return standard_datapath(width=8, stimulus_vectors=60)


@pytest.fixture(scope="module")
def idea_program():
    return idea.build_program(idea.random_blocks(4))


@pytest.fixture(scope="module")
def idea_evaluation(flow, datapath, idea_program):
    return flow.evaluate(
        idea_program, datapath, duty_cycle=xserver_scenario().duty_cycle
    )


class TestFlowConfiguration:
    def test_defaults_to_soias(self):
        assert LowVoltageDesignFlow().technology.is_back_gated

    def test_cycle_time(self, flow):
        assert flow.t_cycle_s == pytest.approx(1e-6)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            LowVoltageDesignFlow(vdd=0.0)

    @pytest.mark.parametrize(
        "corner",
        [
            {"vdd": float("nan")},
            {"vdd": float("inf")},
            {"clock_hz": float("nan")},
            {"clock_hz": float("inf")},
        ],
    )
    def test_non_finite_corner_rejected(self, corner):
        with pytest.raises(AnalysisError, match="finite"):
            LowVoltageDesignFlow(**corner)


class TestStages:
    def test_profile_stage(self, flow, idea_program):
        profile = flow.profile(idea_program)
        assert profile.fga("multiplier") > 0.0

    def test_activity_stage(self, flow, datapath):
        unit = datapath["adder"]
        report = flow.unit_activity(unit.netlist, unit.vectors)
        assert report.mean_activity() > 0.0

    def test_module_parameter_stage(self, flow, datapath):
        unit = datapath["adder"]
        report = flow.unit_activity(unit.netlist, unit.vectors)
        module = flow.module_parameters(unit.netlist, report)
        assert module.switched_capacitance_f > 0.0
        assert module.back_gate_capacitance_f > 0.0


class TestEvaluation:
    def test_covers_all_units(self, idea_evaluation):
        assert set(idea_evaluation.units) == {
            "adder", "shifter", "multiplier",
        }

    def test_duty_cycle_recorded(self, idea_evaluation):
        assert idea_evaluation.duty_cycle == pytest.approx(0.2)

    def test_multiplier_saves_most_for_idea_on_xserver(
        self, idea_evaluation
    ):
        savings = idea_evaluation.savings_table()
        assert savings["multiplier"] > savings["adder"]

    def test_points_match_verdicts(self, idea_evaluation):
        for evaluation in idea_evaluation.units.values():
            assert evaluation.point.soias_wins == evaluation.verdicts[
                "soias"
            ].wins

    def test_unknown_unit_lookup_rejected(self, idea_evaluation):
        with pytest.raises(AnalysisError):
            idea_evaluation.unit("fpu")

    def test_xserver_beats_continuous_for_every_unit(
        self, flow, datapath, idea_program
    ):
        continuous = flow.evaluate(
            idea_program, datapath,
            duty_cycle=continuous_scenario().duty_cycle,
        )
        xserver = flow.evaluate(idea_program, datapath, duty_cycle=0.2)
        for name in datapath:
            assert (
                xserver.unit(name).soias_saving_percent
                >= continuous.unit(name).soias_saving_percent
            )


class TestFig10Acceptance:
    """The headline Fig. 10 shape criteria from DESIGN.md."""

    @pytest.fixture(scope="class")
    def session_savings(self, flow, datapath):
        profiles = [
            profile_program(espresso_like.build_program(32, 8)),
            profile_program(li_like.build_program(48, 30)),
            profile_program(idea.build_program(idea.random_blocks(6))),
        ]
        session = functools.reduce(
            lambda a, b: a.merged_with(b), profiles
        )

        def savings(duty):
            scaled = session.scaled_by_duty_cycle(duty)
            result = {}
            for name, unit in datapath.items():
                report = flow.unit_activity(unit.netlist, unit.vectors)
                module = flow.module_parameters(unit.netlist, report)
                verdict = flow.comparator(module).verdict(
                    "soias", scaled.fga(name), scaled.bga(name)
                )
                result[name] = verdict.saving_percent
            return result

        return savings(1.0), savings(0.2)

    def test_xserver_savings_ordered_like_paper(self, session_savings):
        # Paper: multiplier (97%) > shifter (81%) > adder (43%).
        _, xserver = session_savings
        assert (
            xserver["multiplier"] > xserver["shifter"] > xserver["adder"]
        )

    def test_xserver_magnitudes_in_paper_band(self, session_savings):
        _, xserver = session_savings
        assert xserver["multiplier"] > 90.0
        assert xserver["shifter"] > 60.0
        assert 20.0 < xserver["adder"] < 95.0

    def test_continuous_adder_near_breakeven(self, session_savings):
        # Paper: "for this situation, there is little advantage going
        # to the SOIAS technology" — the busiest unit sits near the
        # contour when the system never idles.
        continuous, _ = session_savings
        assert abs(continuous["adder"]) < 25.0

    def test_duty_cycle_moves_points_below_contour(self, session_savings):
        continuous, xserver = session_savings
        for name in ("adder", "shifter", "multiplier"):
            assert xserver[name] > continuous[name]
