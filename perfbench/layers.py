"""Which public entry points belong to which layer, and what they count.

Layer names follow the package's modules: ``device``, ``tech.char``
(the cell characterizer), ``tech.plan`` (the batched plan kernels of
``tech/batch.py`` and ``tech/opplan.py``), ``circuits.sta`` and
``circuits.dc``, ``switchsim``, ``isa``, ``power``, ``analysis``,
``core``, and orchestration: ``parallel`` (``analysis/parallel.py``),
``sched`` and ``store``.  ``cli`` and ``obs`` are not measured.
"""

from __future__ import annotations

from tracer import BENCH, Entry, Tracer

LAYERS = (
    "device", "tech.char", "tech.plan", "circuits.sta", "circuits.dc",
    "switchsim", "isa", "power", "analysis", "core", "parallel", "store",
    "sched", BENCH,
)


def _remember(tracer, caller, args, result):
    """Count calls from other layers; keep the characterizer so its
    cache statistics can be read after the run."""
    if caller != "tech.char":
        tracer.counts["tech.char.calls"] += 1
        tracer.seen.setdefault(id(args[0]), args[0])


def _points(tracer, caller, args, result):
    if caller != "tech.plan":
        tracer.counts["tech.plan.points"] += len(args[1])


def _point(tracer, caller, args, result):
    if caller != "tech.plan":
        tracer.counts["tech.plan.points"] += 1


def _sta(tracer, caller, args, result):
    if caller == "power":
        tracer.counts["power.delay_probes"] += 1


def _simulated(tracer, caller, args, result):
    tracer.counts["switchsim.vectors"] += result.cycles
    tracer.counts["switchsim.transitions"] += sum(
        result.rising.values()
    ) + sum(result.falling.values())


def _retired(tracer, caller, args, result):
    retired = getattr(result, "retired", result)
    tracer.counts["isa.instructions"] += retired


def _surface(tracer, caller, args, result):
    xs, ys = result.grid.xs, result.grid.ys
    uniform = len(xs) * len(ys)
    evaluated = uniform
    if result.refined is not None:
        evaluated = result.refined.evaluated
        uniform = result.refined.total_points
    tracer.counts["analysis.cells"] += evaluated
    tracer.counts["analysis.uniform_cells"] += uniform


def _samples(tracer, caller, args, result):
    tracer.counts["analysis.mc_samples"] += len(result.samples)


def _items(tracer, caller, args, result):
    tracer.counts["parallel.items"] += len(args[1])


def _get(tracer, caller, args, result):
    tracer.counts["store.gets"] += 1
    if result is not None:
        tracer.counts["store.hits"] += 1


def _chunks(tracer, caller, args, result):
    tracer.counts["sched.chunks"] += result.n_chunks


def _methods(prefix, names, layer, **options):
    return [Entry(f"{prefix}.{name}", layer, **options) for name in names]


_CAP = "repro.device.capacitance:"
_CHAR = "repro.tech.characterize:CellCharacterizer"
_MODULE_OPT = "repro.power.optimizer:ModuleThroughputOptimizer"
_RING = "repro.power.optimizer:RingOscillatorModel"

ENTRIES = (
    # device: scalar hot paths, counted but never spanned
    [
        Entry("repro.device.mosfet:Mosfet.drain_current", "device",
              every="device.drain_current.calls"),
        Entry("repro.device.mosfet:Mosfet.off_current", "device"),
        Entry("repro.device.mosfet:Mosfet.on_current", "device"),
        Entry("repro.device.leakage:StackLeakageModel.current", "device",
              every="device.stack_current.calls"),
        Entry("repro.device.leakage:stack_leakage_current", "device"),
    ]
    + _methods(_CAP + "GateCapacitanceModel",
               ("capacitance_at", "switched_capacitance",
                "gate_capacitance"), "device")
    + _methods(_CAP + "JunctionCapacitanceModel",
               ("capacitance_at", "switched_capacitance",
                "drain_capacitance"), "device")
    + _methods(_CAP + "WireCapacitanceModel", ("wire_capacitance",),
               "device")
    # tech.char: the memoized characterizer
    + _methods(_CHAR,
               ("pull_down_current", "pull_up_current", "propagation_delay",
                "fanout_delay", "planned_fanout_delay",
                "energy_per_transition", "short_circuit_energy",
                "leakage_current", "characterize"),
               "tech.char", tally=_remember)
    # tech.plan: decoded plans and their vector kernels
    + _methods(_CHAR, ("plan_variation", "plan_operating"), "tech.plan")
    + [
        Entry("repro.tech.batch:VariationPlan.build", "tech.plan",
              every="tech.plan.builds"),
        Entry("repro.tech.opplan:OperatingPlan.build", "tech.plan",
              every="tech.plan.builds"),
    ]
    + _methods("repro.tech.batch:VariationPlan", ("delays", "leakages"),
               "tech.plan", tally=_points)
    + _methods("repro.tech.batch:VariationPlan", ("delay", "leakage"),
               "tech.plan", tally=_point)
    + _methods("repro.tech.opplan:OperatingPlan",
               ("delays", "leakages", "energies", "operating_points"),
               "tech.plan", tally=_points)
    + _methods("repro.tech.opplan:OperatingPlan", ("delay", "leakage"),
               "tech.plan", tally=_point)
    # circuits
    + [
        Entry("repro.circuits.timing:StaticTimingAnalyzer.analyze",
              "circuits.sta", span=True, every="circuits.sta.calls",
              tally=_sta),
        Entry("repro.circuits.dc:InverterDcAnalysis.output_voltage",
              "circuits.dc", every="circuits.dc.solves"),
    ]
    + _methods("repro.circuits.dc:InverterDcAnalysis",
               ("minimum_supply", "noise_margins"), "circuits.dc",
               span=True)
    + _methods("repro.circuits.dc:InverterDcAnalysis",
               ("switching_threshold", "peak_gain", "gain",
                "transfer_curve"), "circuits.dc")
    # switchsim
    + _methods("repro.switchsim.simulator:SwitchLevelSimulator",
               ("run_vectors", "run_vectors_fast"), "switchsim",
               span=True, tally=_simulated)
    # isa
    + [Entry("repro.isa.profiler:profile_program", "isa", span=True)]
    + [Entry("repro.isa.machine:Machine.decode", "isa", span=True)]
    + _methods("repro.isa.machine:Machine",
               ("run", "run_fast", "run_counted"), "isa", span=True,
               tally=_retired)
    # power
    + _methods(_MODULE_OPT, ("optimum", "sweep"), "power", span=True)
    + _methods(_MODULE_OPT,
               ("locus_point", "delay", "energy_per_operation",
                "statistical_energy_per_operation"), "power")
    + _methods(_MODULE_OPT, ("solve_vdd_for_delay", "solve_vdd_for_yield"),
               "power", every="power.vdd_solves")
    + _methods("repro.power.optimizer:FixedThroughputOptimizer",
               ("optimum", "sweep"), "power", span=True)
    + _methods("repro.power.optimizer:FixedThroughputOptimizer",
               ("locus_point",), "power")
    + [Entry(_RING + ".stage_delay", "power",
             every="power.delay_probes")]
    + _methods(_RING, ("solve_vdd_for_delay", "solve_vdd_for_yield"),
               "power", every="power.vdd_solves")
    + _methods(_RING,
               ("oscillation_period", "energy_per_cycle",
                "statistical_energy_per_cycle"), "power")
    + _methods("repro.power.estimator:PowerEstimator",
               ("switching_power", "leakage_current", "leakage_power",
                "short_circuit_power", "breakdown"), "power")
    + [Entry("repro.power.energy:module_parameters_from_activity", "power",
             span=True)]
    # analysis
    + [
        Entry("repro.analysis.surface:energy_surface", "analysis",
              span=True, tally=_surface),
        Entry("repro.analysis.contour:energy_ratio_surface", "analysis",
              span=True, tally=_surface),
        Entry("repro.analysis.sweep:sweep_2d", "analysis", span=True),
    ]
    + _methods("repro.analysis.variation:MonteCarloAnalyzer",
               ("delay_distribution", "leakage_distribution"), "analysis",
               span=True, tally=_samples)
    + _methods("repro.analysis.comparator:TechnologyComparator",
               ("verdict", "all_verdicts"), "analysis")
    # core
    + _methods("repro.core.flow:LowVoltageDesignFlow",
               ("evaluate", "profile", "unit_activity", "module_parameters",
                "comparator", "ratio_surface", "energy_surface",
                "throughput_optimizer", "optimize_throughput"), "core",
               span=True)
    # orchestration
    + [
        Entry("repro.analysis.parallel:map_items", "parallel", span=True,
              tally=_items),
        Entry("repro.analysis.parallel:map_grid", "parallel", span=True),
    ]
    + [Entry("repro.store.backend:ResultStore.get", "store", tally=_get)]
    + _methods("repro.store.backend:ResultStore", ("put", "put_new"),
               "store", every="store.puts")
    + _methods("repro.store.checkpoint:SweepCheckpoint",
               ("restored", "record", "record_many", "flush", "finalize"),
               "store")
    + [
        Entry("repro.sched.scheduler:drain", "sched", span=True),
        Entry("repro.sched.worker:Worker.run", "sched", span=True,
              every="sched.rescues"),
        Entry("repro.sched.client:Scheduler.submit", "sched", span=True,
              tally=_chunks),
    ]
    + _methods("repro.sched.client:Scheduler",
               ("run", "wait", "close", "ensure_local_workers"), "sched",
               span=True)
)


#: Every per-layer metric, in report order, with its unit.
METRICS = (
    ("device.drain_current.calls", "count"),
    ("device.stack_current.calls", "count"),
    ("device.self_s", "s"),
    ("circuits.sta.calls", "count"),
    ("circuits.sta.self_s", "s"),
    ("circuits.dc.solves", "count"),
    ("circuits.dc.self_s", "s"),
    ("tech.char.calls", "count"),
    ("tech.char.hit_ratio", "ratio"),
    ("tech.char.self_s", "s"),
    ("tech.plan.builds", "count"),
    ("tech.plan.points", "count"),
    ("tech.plan.self_s", "s"),
    ("switchsim.vectors", "count"),
    ("switchsim.transitions", "count"),
    ("switchsim.self_s", "s"),
    ("isa.instructions", "count"),
    ("isa.self_s", "s"),
    ("power.delay_probes", "count"),
    ("power.vdd_solves", "count"),
    ("power.self_s", "s"),
    ("analysis.cells", "count"),
    ("analysis.refine_coverage", "ratio"),
    ("analysis.mc_samples", "count"),
    ("analysis.self_s", "s"),
    ("core.self_s", "s"),
    ("parallel.items", "count"),
    ("parallel.wait_s", "s"),
    ("parallel.cpu_s", "s"),
    ("parallel.speedup", "ratio"),
    ("store.gets", "count"),
    ("store.hits", "count"),
    ("store.puts", "count"),
    ("store.self_s", "s"),
    ("sched.drain_s", "s"),
    ("sched.chunks", "count"),
    ("sched.rescues", "count"),
    ("fanout.mismatches", "count"),
    ("trace.overhead_s", "s"),
)


def summarize(tracer: Tracer, parallel_cpu_s: float) -> dict:
    """Per-layer metrics measured by one traced run.

    ``parallel.speedup``, ``fanout.mismatches`` and ``trace.overhead_s``
    need the untraced run and the oracle, so the caller fills them in.
    """
    counts = tracer.counts
    metrics = {name: counts.get(name, 0) for name, unit in METRICS
               if unit == "count"}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
    hits = misses = 0
    for characterizer in tracer.seen.values():
        info = characterizer.cache_info()
        hits += info.hits
        misses += info.misses
    metrics["tech.char.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    uniform = counts.get("analysis.uniform_cells", 0)
    metrics["analysis.refine_coverage"] = (
        counts.get("analysis.cells", 0) / uniform if uniform else 0.0
    )
    metrics["parallel.wait_s"] = tracer.inclusive_s(layer="parallel")
    metrics["parallel.cpu_s"] = parallel_cpu_s
    metrics["sched.drain_s"] = tracer.inclusive_s(name="drain")
    return metrics
