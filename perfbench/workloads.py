"""The benchmark's workloads: seeded inputs, design queries and checks.

Each workload is a fixed list of design queries run through the public
``repro`` API.  ``inputs(seed)`` generates everything that depends on
the seed; the program only ever sees those generated inputs, and the
query list never depends on the seed.  ``setup`` builds technologies,
netlists, stimulus and assembled programs from the inputs (that is the
benchmark's ``setup_s``; the runner adds a private ``scratch``
directory to the context); ``run`` answers one query; ``check`` holds a
query's result to the paper's shape.

An operation is one query.  It fails if it raises, if it breaks its
shape check, or (on ``fanout``) if it is not bit-identical to the
serial oracle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os


class ShapeError(Exception):
    """A query's result breaks the shape the paper predicts."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ShapeError(message)


def effective_cpus() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
def canonical(value):
    """A JSON-able form of a result that keeps every float bit."""
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__, {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }]
    if isinstance(value, dict):
        items = [
            [json.dumps(canonical(key)), canonical(item)]
            for key, item in value.items()
        ]
        return sorted(items)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json.dumps(canonical(item)) for item in value)
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    text = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# module_optimum
# ----------------------------------------------------------------------
class ModuleOptimum:
    name = "module_optimum"
    why = (
        "Fig. 4 optimum on the 8-bit adder netlist plus inverter V_DD "
        "floors: scalar device calls under STA and DC solves; bypasses "
        "isa, switchsim and the plan kernels"
    )
    UTILIZATIONS = (1.0, 0.1, 0.02)
    BUDGETS = (0.25, 0.3, 0.35)
    queries = tuple(f"optimum@{u}" for u in UTILIZATIONS) + tuple(
        f"vdd_floor@{b}" for b in BUDGETS
    )

    def inputs(self, seed: int) -> dict:
        from repro.switchsim.stimulus import random_bus_vectors

        return {
            "width": 8,
            "vectors": random_bus_vectors({"a": 8, "b": 8}, 80, seed=seed),
            "target_factor": 3.0,
        }

    def setup(self, inputs: dict) -> dict:
        from repro.circuits.builders import ripple_carry_adder
        from repro.circuits.dc import InverterDcAnalysis
        from repro.device.technology import soi_low_vt
        from repro.power.optimizer import ModuleThroughputOptimizer
        from repro.switchsim.simulator import SwitchLevelSimulator

        technology = soi_low_vt()
        adder = ripple_carry_adder(inputs["width"])
        report = SwitchLevelSimulator(adder, technology, 1.0).run_vectors_fast(
            inputs["vectors"]
        )
        optimizer = ModuleThroughputOptimizer(adder, technology, report)
        base_vt = technology.transistors.nmos.vt0
        return {
            "technology": technology,
            "optimizer": optimizer,
            "target": inputs["target_factor"] * optimizer.delay(1.0, base_vt),
            "dc": InverterDcAnalysis(technology),
        }

    def run(self, ctx: dict, query: str, done: dict):
        kind, value = query.split("@")
        if kind == "optimum":
            return ctx["optimizer"].optimum(
                ctx["target"], utilization=float(value)
            )
        return ctx["dc"].minimum_supply(float(value))

    def check(self, ctx: dict, query: str, result, done: dict) -> None:
        kind, value = query.split("@")
        if kind == "optimum":
            _expect(result.vdd < 1.0, f"optimum V_DD {result.vdd} >= 1 V")
            _expect(
                result.stage_delay_s <= ctx["target"] * 1.01,
                "optimum misses the delay target",
            )
            busier = [
                done[f"optimum@{u}"] for u in self.UTILIZATIONS
                if u > float(value) and done.get(f"optimum@{u}")
            ]
            _expect(
                all(result.vt >= point.vt for point in busier),
                "optimum V_T must climb as utilization falls",
            )
            return
        n_phi_t = ctx["technology"].transistors.nmos.subthreshold_swing / (
            math.log(10.0)
        )
        _expect(n_phi_t < result < 0.25, f"V_DD floor {result} out of band")
        looser = [
            done[f"vdd_floor@{b}"] for b in self.BUDGETS
            if b < float(value) and done.get(f"vdd_floor@{b}") is not None
        ]
        _expect(
            all(result >= floor for floor in looser),
            "a stricter margin budget must raise the floor",
        )


# ----------------------------------------------------------------------
# burst_flow
# ----------------------------------------------------------------------
class BurstFlow:
    name = "burst_flow"
    why = (
        "Section 5 fga/bga flow on three profiled programs at duty 1.0 "
        "and 0.2 plus a refined Fig. 10 surface: switchsim, "
        "characterizer leakage and isa"
    )
    PROGRAMS = ("idea", "espresso", "li")
    DUTIES = (1.0, 0.2)
    FGA = tuple(10.0 ** e for e in (-4, -3, -2, -1, 0))
    BGA = tuple(10.0 ** e for e in (-5, -4, -3, -2, -1))
    queries = tuple(
        f"evaluate:{program}@{duty}"
        for program, duty in itertools.product(PROGRAMS, DUTIES)
    ) + ("ratio_surface:adder",)

    def inputs(self, seed: int) -> dict:
        from repro.isa.workloads import espresso_like, idea

        # Sizes put ISA profiling at a visible share of the flow.
        return {
            "idea_blocks": idea.random_blocks(1024, seed=seed),
            "espresso_cover": espresso_like.random_cover(256, 10, seed),
            "espresso_vars": 10,
            "li": (512, 256),
            "datapath_seed": seed,
            "refine_levels": 4,
        }

    def setup(self, inputs: dict) -> dict:
        from repro.core.flow import LowVoltageDesignFlow
        from repro.core.scenarios import standard_datapath
        from repro.isa.assembler import assemble
        from repro.isa.workloads import espresso_like, idea, li_like

        return {
            "flow": LowVoltageDesignFlow(vdd=1.0, clock_hz=1e6),
            "datapath": standard_datapath(seed=inputs["datapath_seed"]),
            "programs": {
                "idea": idea.build_program(inputs["idea_blocks"]),
                "espresso": assemble(
                    espresso_like.source(
                        inputs["espresso_cover"], inputs["espresso_vars"]
                    ),
                    name="espresso",
                ),
                "li": li_like.build_program(*inputs["li"]),
            },
            "refine_levels": inputs["refine_levels"],
        }

    def run(self, ctx: dict, query: str, done: dict):
        kind, what = query.split(":")
        if kind == "evaluate":
            program, duty = what.split("@")
            return ctx["flow"].evaluate(
                ctx["programs"][program], ctx["datapath"],
                duty_cycle=float(duty),
            )
        # The adder module comes from the first evaluation: the flow
        # derived it from the same datapath.
        module = done[f"evaluate:{self.PROGRAMS[0]}@1.0"].units["adder"].module
        return ctx["flow"].ratio_surface(
            module, self.FGA, self.BGA, refine_levels=ctx["refine_levels"]
        )

    def check(self, ctx: dict, query: str, result, done: dict) -> None:
        kind, what = query.split(":")
        if kind == "evaluate":
            savings = result.savings_table()
            _expect(
                all(-100.0 <= s <= 100.0 for s in savings.values()),
                "saving outside [-100, 100] %",
            )
            program, duty = what.split("@")
            if float(duty) == 1.0:
                return
            _expect(
                all(s > 0.0 for s in savings.values()),
                "every unit must save at X-server duty",
            )
            _expect(
                savings["multiplier"] >= savings["shifter"]
                >= savings["adder"],
                "X-server savings must order multiplier >= shifter >= adder",
            )
            busy = done.get(f"evaluate:{program}@1.0")
            if busy is not None:
                busy_savings = busy.savings_table()
                _expect(
                    all(savings[u] >= busy_savings[u] for u in savings),
                    "idling more must not save less",
                )
            return
        contour = result.breakeven_contour(list(self.FGA))
        _expect(
            any(b is not None for b in contour), "no break-even contour"
        )
        for i in range(len(self.FGA)):
            row = [
                result.grid.at(i, j) for j in range(len(self.BGA))
                if result.grid.at(i, j) is not None
            ]
            _expect(row == sorted(row), "ratio must rise with bga")
        _expect(result.refined.coverage < 1.0, "refinement saved nothing")


# ----------------------------------------------------------------------
# variation_sweep
# ----------------------------------------------------------------------
class VariationSweep:
    name = "variation_sweep"
    why = (
        "Fig. 3/4 energy surface, nominal and p99-yield optima and "
        "Monte-Carlo cell distributions: the batched tech.plan kernels"
    )
    CELLS = ("INV", "NAND2", "NOR2")
    queries = (
        "energy_surface", "optimum:nominal", "optimum:yield",
    ) + tuple(
        f"{kind}.{cell}" for cell in CELLS for kind in ("delay", "leakage")
    )

    def inputs(self, seed: int) -> dict:
        n_vt, n_vdd = 20, 40
        return {
            "vts": [0.08 + 0.4 * i / (n_vt - 1) for i in range(n_vt)],
            "vdds": [0.1 + 1.4 * j / (n_vdd - 1) for j in range(n_vdd)],
            "clock_hz": 2e7,
            "stages": 11,
            "refine_levels": 2,
            "vt_bounds": (0.05, 0.45),
            "yield": {"percentile": 99.0, "vt_sigma": 0.03,
                      "n_samples": 120, "seed": seed},
            "mc": {"vt_sigma": 0.03, "n_samples": 800, "seed": seed},
            "mc_vdd": 0.6,
        }

    def setup(self, inputs: dict) -> dict:
        from repro.core.flow import LowVoltageDesignFlow
        from repro.device.technology import soi_low_vt
        from repro.power.optimizer import RingOscillatorModel, VariationSpec
        from repro.tech.cells import standard_cells

        technology = soi_low_vt()
        ring = RingOscillatorModel(technology, stages=inputs["stages"])
        return {
            "inputs": inputs,
            "technology": technology,
            "cells": standard_cells(),
            "flow": LowVoltageDesignFlow(
                technology=technology, clock_hz=inputs["clock_hz"]
            ),
            "yield_flow": LowVoltageDesignFlow(
                technology=technology, clock_hz=inputs["clock_hz"],
                variation=VariationSpec(**inputs["yield"]),
            ),
            "target": 4.0 * ring.stage_delay(1.0, 0.2),
        }

    def surface(self, ctx: dict, **fanout):
        inputs = ctx["inputs"]
        return ctx["flow"].energy_surface(
            inputs["vts"], inputs["vdds"], stages=inputs["stages"],
            refine_levels=inputs["refine_levels"], **fanout,
        )

    def distribution(self, ctx: dict, kind: str, cell: str, **fanout):
        from repro.analysis.variation import MonteCarloAnalyzer

        analyzer = MonteCarloAnalyzer(
            ctx["technology"], **ctx["inputs"]["mc"], **fanout
        )
        measure = (
            analyzer.delay_distribution if kind == "delay"
            else analyzer.leakage_distribution
        )
        return measure(ctx["cells"][cell], ctx["inputs"]["mc_vdd"])

    def run(self, ctx: dict, query: str, done: dict, **fanout):
        """Answer one query; ``fanout`` options (``workers``, ``store``,
        ``scheduler``) go to the surface and distribution queries."""
        if query == "energy_surface":
            return self.surface(ctx, **fanout)
        if query.startswith("optimum:"):
            flow = ctx["yield_flow" if query.endswith("yield") else "flow"]
            return flow.optimize_throughput(
                ctx["target"], stages=ctx["inputs"]["stages"],
                vt_bounds=ctx["inputs"]["vt_bounds"],
            )
        kind, cell = query.split(".")
        return self.distribution(ctx, kind, cell, **fanout)

    def check(self, ctx: dict, query: str, result, done: dict) -> None:
        if query == "energy_surface":
            defined = result.grid.defined_cells()
            total = len(result.grid.xs) * len(result.grid.ys)
            _expect(0 < defined < total,
                    "the plane must be partly infeasible")
            locus = result.optimum_locus()
            vdds = [vdd for vt, vdd, energy in locus]
            _expect(vdds == sorted(vdds),
                    "locus V_DD must rise with V_T (Fig. 3)")
            _expect(result.refined.coverage < 1.0,
                    "refinement saved nothing")
            return
        if query.startswith("optimum:"):
            limit = ctx["target"] * 1.01
            if query.endswith("yield"):
                _expect(result.delay_percentile_s <= limit,
                        "p99 delay misses the target")
                nominal = done.get("optimum:nominal")
                if nominal is not None:
                    _expect(
                        result.energy_per_cycle_j
                        >= nominal.energy_per_cycle_j,
                        "a yield guard band cannot cost less energy",
                    )
            else:
                _expect(result.stage_delay_s <= limit,
                        "optimum misses the delay target")
            return
        samples = result.samples
        _expect(len(samples) == ctx["inputs"]["mc"]["n_samples"],
                "sample count")
        _expect(all(math.isfinite(s) and s > 0.0 for s in samples),
                "non-positive or non-finite sample")
        if query.startswith("leakage"):
            _expect(result.mean > result.percentile(50.0),
                    "leakage must be right-skewed (lognormal)")
        else:
            _expect(result.std > 0.0, "V_T variation must spread delay")


# ----------------------------------------------------------------------
# fanout
# ----------------------------------------------------------------------
class Fanout:
    name = "fanout"
    why = (
        "variation_sweep's NAND2/NOR2 leakage and energy surface through "
        "the pool, a cold then warm ResultStore and the scheduler"
    )
    BASE = ("leakage.NAND2", "leakage.NOR2", "energy_surface")
    ROUTES = ("pool", "store_cold", "store_warm", "sched")
    queries = tuple(
        f"{route}:{base}" for route, base in itertools.product(ROUTES, BASE)
    )

    def __init__(self):
        self.serial = VariationSweep()

    def inputs(self, seed: int) -> dict:
        return self.serial.inputs(seed)

    def setup(self, inputs: dict) -> dict:
        ctx = self.serial.setup(inputs)
        # The pool needs at least two workers to run at all.
        ctx["workers"] = max(2, effective_cpus())
        return ctx

    def run_serial(self, ctx: dict, base: str, done: dict):
        """The oracle: the same query, serial, as variation_sweep runs it."""
        return self.serial.run(ctx, base, done)

    def run(self, ctx: dict, query: str, done: dict):
        from repro.sched.client import Scheduler
        from repro.store.backend import ResultStore

        route, base = query.split(":")
        workers = ctx["workers"]
        if route == "pool":
            return self.serial.run(ctx, base, done, workers=workers)
        if route.startswith("store"):
            # Every store query opens the store afresh, as a new
            # process would; the warm re-request reads what cold wrote.
            store = ResultStore.at(os.path.join(ctx["scratch"], "store"))
            return self.serial.run(ctx, base, done, workers=workers,
                                   store=store)
        root = os.path.join(ctx["scratch"], f"queue-{base}")
        with Scheduler(root=root, local_workers=workers) as scheduler:
            return self.serial.run(ctx, base, done, scheduler=scheduler)

    def check(self, ctx: dict, query: str, result, done: dict) -> None:
        """Bit-identity with the oracle is checked by the runner."""


WORKLOADS = {
    workload.name: workload
    for workload in (ModuleOptimum(), BurstFlow(), VariationSweep(), Fanout())
}
