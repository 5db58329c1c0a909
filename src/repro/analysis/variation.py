"""Monte-Carlo threshold-variation analysis (extension).

Aggressive voltage scaling amplifies process variation: gate delay
goes as ``(V_DD - V_T)^-alpha``, so the same V_T spread that is noise
at 3 V becomes a large delay spread at 0.3 V; and because leakage is
exponential in V_T, the *mean* leakage of many devices exceeds the
nominal-V_T leakage (a lognormal mean shift).  Both effects bear
directly on how far the paper's (V_DD, V_T) optimization can be pushed
on real silicon.

:class:`MonteCarloAnalyzer` samples per-device V_T offsets and reports
delay and leakage distributions for any cell; the closed-form
lognormal mean amplification is provided for cross-checking.

Every distribution is evaluated through the **batched variation
engine**: each sample asks a per-process
:class:`~repro.tech.batch.VariationPlan` for its (cell, V_DD, load)
corner — decoded once and cached — instead of running the full
characterization call chain.  The samples fan out through
:func:`repro.analysis.parallel.fan_out`, so the serial, ``workers``,
``scheduler`` and ``store``-checkpointed paths are one path, and all
of them are bit-identical to the per-sample characterizer chain
(asserted by the differential property tests and the ``variation``
section of ``bench_hotpaths.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.device.technology import Technology
from repro.errors import AnalysisError
from repro.tech.cells import Cell
from repro.tech.characterize import CellCharacterizer
from repro.units import LN10

__all__ = [
    "Distribution",
    "MonteCarloAnalyzer",
    "lognormal_leakage_amplification",
]

#: Per-process characterizer cache for the parallel Monte-Carlo path —
#: each pool or scheduler worker decodes a corner once (the plan is
#: memoized on its characterizer) and reuses it across the chunks it
#: is handed.  Keyed by the (hashable) Technology value.
_WORKER_CHARACTERIZERS: dict = {}

#: Eviction bound on the per-process cache: a long-lived worker serving
#: sweeps over many technologies would otherwise accumulate one
#: unbounded memo per technology (oldest-first eviction, FIFO).
_MAX_WORKER_CHARACTERIZERS = 8


def _characterizer_for(technology: Technology) -> CellCharacterizer:
    characterizer = _WORKER_CHARACTERIZERS.get(technology)
    if characterizer is None:
        while len(_WORKER_CHARACTERIZERS) >= _MAX_WORKER_CHARACTERIZERS:
            _WORKER_CHARACTERIZERS.pop(next(iter(_WORKER_CHARACTERIZERS)))
        characterizer = CellCharacterizer(technology)
        _WORKER_CHARACTERIZERS[technology] = characterizer
    return characterizer


class _VtSample:
    """One Monte-Carlo sample: ``vt_shift -> delay or leakage``.

    Picklable, so the fan-out can ship it to pool and scheduler
    workers.  The corner's :class:`~repro.tech.batch.VariationPlan` is
    decoded on first call and cached on the instance — through the
    analyzer's characterizer in the parent, through the per-process
    characterizer cache in a worker.  Both are left out of the pickled
    state, so each worker decodes the corner once in its own process.
    """

    __slots__ = (
        "kind", "technology", "cell", "vdd", "load_f", "_characterizer",
        "_plan",
    )

    def __init__(
        self,
        kind: str,
        technology: Technology,
        cell: Cell,
        vdd: float,
        load_f: float,
        characterizer: Optional[CellCharacterizer] = None,
    ):
        self.kind = kind
        self.technology = technology
        self.cell = cell
        self.vdd = vdd
        self.load_f = load_f
        self._characterizer = characterizer
        self._plan = None

    def __call__(self, vt_shift: float) -> float:
        plan = self._plan
        if plan is None:
            characterizer = self._characterizer
            if characterizer is None:
                characterizer = _characterizer_for(self.technology)
            plan = self._plan = characterizer.plan_variation(
                self.cell, self.vdd, self.load_f
            )
        if self.kind == "delay":
            return plan.delay(vt_shift)
        return plan.leakage(vt_shift)

    def __getstate__(self):
        return (self.kind, self.technology, self.cell, self.vdd, self.load_f)

    def __setstate__(self, state):
        self.__init__(*state)


def _gaussian_shifts(sigma: float, n_samples: int, seed: int) -> List[float]:
    """Deterministic Gaussian V_T offsets, one per sample.

    The one draw behind :meth:`MonteCarloAnalyzer.sample_vt_shifts` and
    :meth:`repro.power.optimizer.VariationSpec.draw_shifts`, so an
    analyzer and a yield solve with the same (sigma, samples, seed)
    see the same shifts.
    """
    rng = random.Random(seed)
    return [rng.gauss(0.0, sigma) for _ in range(n_samples)]


def _sorted_percentile(ordered, p: float, measure=float) -> float:
    """Linear-interpolated p-th percentile of ``measure`` over sorted
    ``ordered``, p in [0, 100].

    Exact for a nondecreasing ``measure``, which keeps the order.
    ``measure`` runs on the bracketing order statistics only, and on
    the second only when the percentile falls strictly between them.
    """
    position = p / 100.0 * (len(ordered) - 1)
    low = int(position)
    fraction = position - low
    value = measure(ordered[low])
    if fraction == 0.0:
        return value
    high = measure(ordered[min(low + 1, len(ordered) - 1)])
    return value * (1.0 - fraction) + high * fraction


@dataclass(frozen=True)
class Distribution:
    """Summary of a sampled quantity.

    Moments and the sorted sample view are computed once on first use
    and cached on the (frozen) instance, so ``percentile`` does not
    re-sort the tuple per call — ``timing_yield_vdd``'s 40-step
    bisection used to sort the same 300 samples on every probe.
    """

    samples: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise AnalysisError("need at least two samples")
        object.__setattr__(self, "_moments", None)
        object.__setattr__(self, "_ordered", None)

    def _stats(self) -> Tuple[float, float]:
        moments = self._moments
        if moments is None:
            mu = sum(self.samples) / len(self.samples)
            std = math.sqrt(
                sum((x - mu) ** 2 for x in self.samples)
                / (len(self.samples) - 1)
            )
            moments = (mu, std)
            object.__setattr__(self, "_moments", moments)
        return moments

    @property
    def mean(self) -> float:
        """Sample mean."""
        return self._stats()[0]

    @property
    def std(self) -> float:
        """Sample standard deviation (n-1)."""
        return self._stats()[1]

    @property
    def coefficient_of_variation(self) -> float:
        """std / mean — the spread metric that grows at low V_DD."""
        mu, std = self._stats()
        if mu == 0.0:
            raise AnalysisError("mean is zero; CV undefined")
        return std / mu

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, p in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise AnalysisError("percentile must be in [0, 100]")
        ordered = self._ordered
        if ordered is None:
            ordered = sorted(self.samples)
            object.__setattr__(self, "_ordered", ordered)
        return _sorted_percentile(ordered, p)


def lognormal_leakage_amplification(
    vt_sigma: float, subthreshold_swing: float
) -> float:
    """Closed-form mean-leakage amplification from V_T spread.

    With ``I = I0 * 10^(-dVT / S)`` and Gaussian ``dVT``, the current is
    lognormal with ``sigma_ln = vt_sigma * ln10 / S`` and mean
    ``exp(sigma_ln^2 / 2)`` times the nominal — why chips leak more
    than their nominal corner says.
    """
    if vt_sigma < 0.0 or subthreshold_swing <= 0.0:
        raise AnalysisError("bad sigma or swing")
    sigma_ln = vt_sigma * LN10 / subthreshold_swing
    return math.exp(sigma_ln**2 / 2.0)


class MonteCarloAnalyzer:
    """Samples per-instance V_T offsets and characterizes the spread."""

    def __init__(
        self,
        technology: Technology,
        vt_sigma: float = 0.03,
        n_samples: int = 300,
        seed: int = 0,
        workers: int = 0,
        store=None,
        progress=None,
        scheduler=None,
    ):
        if vt_sigma < 0.0:
            raise AnalysisError("vt_sigma must be >= 0")
        if n_samples < 2:
            raise AnalysisError("need at least two samples")
        self.technology = technology
        self.vt_sigma = vt_sigma
        self.n_samples = n_samples
        self.seed = seed
        self.workers = workers
        self.store = store
        self.progress = progress
        #: Optional :class:`repro.sched.Scheduler`: evaluates sample
        #: chunks through the durable work queue instead of the
        #: in-process pool (``workers`` is then ignored; chunk planning
        #: follows the scheduler's deterministic ``plan_workers``).
        self.scheduler = scheduler
        self._characterizer = CellCharacterizer(technology)
        self._tech_digest: str = ""

    def _request_key(self, kind: str, *parts) -> str:
        """Canonical key for one distribution request on this analyzer."""
        from repro.store.hashing import request_digest, technology_digest

        if not self._tech_digest:
            self._tech_digest = technology_digest(self.technology)
        return request_digest(
            kind,
            self._tech_digest,
            self.vt_sigma,
            self.n_samples,
            self.seed,
            *parts,
        )

    def _distribution(
        self, key, kind: str, cell: Cell, vdd: float, load_f: float
    ) -> Distribution:
        """Fan the V_T samples out, checkpointed under ``key`` when
        the analyzer has a store (one checkpoint cell per sample)."""
        from repro.analysis.parallel import fan_out

        shifts = self.sample_vt_shifts()
        checkpoint = None
        if self.store is not None:
            from repro.store.checkpoint import SweepCheckpoint

            checkpoint = SweepCheckpoint(self.store, key, len(shifts))
        samples = fan_out(
            _VtSample(
                kind, self.technology, cell, vdd, load_f, self._characterizer
            ),
            shifts,
            workers=self.workers,
            scheduler=self.scheduler,
            progress=self.progress,
            checkpoint=checkpoint,
        )
        return Distribution(samples=tuple(samples))

    def sample_vt_shifts(self) -> List[float]:
        """Deterministic Gaussian V_T offsets (one per sample)."""
        return _gaussian_shifts(self.vt_sigma, self.n_samples, self.seed)

    def delay_distribution(
        self, cell: Cell, vdd: float, load_f: float = 10e-15
    ) -> Distribution:
        """Cell delay across the V_T samples at one supply.

        With ``workers`` set on the analyzer the samples fan out over
        processes; the sampled values (and their order) are identical
        to the serial path because each sample is a pure function of
        its deterministic V_T shift.  With a ``store`` on the analyzer
        the samples are checkpointed and restored across runs (keyed
        by technology, cell, operating point, and the sampling
        parameters), again bit-identical.
        """
        key = None
        if self.store is not None:
            from repro.store.hashing import cell_digest

            key = self._request_key(
                "mc-delay", cell_digest(cell), vdd, load_f
            )
        return self._distribution(key, "delay", cell, vdd, load_f)

    def leakage_distribution(
        self, cell: Cell, vdd: float
    ) -> Distribution:
        """Cell leakage across the V_T samples at one supply.

        Store/workers semantics match :meth:`delay_distribution`.
        """
        key = None
        if self.store is not None:
            from repro.store.hashing import cell_digest

            key = self._request_key("mc-leakage", cell_digest(cell), vdd)
        return self._distribution(key, "leakage", cell, vdd, 0.0)

    def leakage_amplification(self, cell: Cell, vdd: float) -> float:
        """Measured mean-vs-nominal leakage ratio (cf. the closed form)."""
        nominal = self._characterizer.leakage_current(cell, vdd)
        if nominal <= 0.0:
            raise AnalysisError("nominal leakage is zero")
        return self.leakage_distribution(cell, vdd).mean / nominal

    def delay_spread_vs_vdd(
        self, cell: Cell, vdds: Sequence[float], load_f: float = 10e-15
    ) -> List[Tuple[float, float]]:
        """(V_DD, delay CV) pairs: the low-voltage variation penalty.

        Each supply point reuses its memoized plan on repeat visits —
        sweeping the same supplies again costs only the vector loops.
        """
        if not vdds:
            raise AnalysisError("empty supply sweep")
        return [
            (
                vdd,
                self.delay_distribution(
                    cell, vdd, load_f
                ).coefficient_of_variation,
            )
            for vdd in vdds
        ]

    def timing_yield_vdd(
        self,
        cell: Cell,
        target_delay_s: float,
        percentile: float = 99.0,
        load_f: float = 10e-15,
        vdd_bounds: Tuple[float, float] = (0.1, 2.0),
    ) -> float:
        """Supply at which the p-th percentile delay meets the target.

        The variation-aware version of Fig. 3's V_DD-for-delay solve:
        guard-banding the supply so slow-corner devices still make
        timing.  Each bisection V_DD decodes one plan and evaluates the
        shift vector through it, and the per-V_DD percentile is
        memoized within the solve, so revisiting a bracket endpoint is
        free.
        """
        if target_delay_s <= 0.0:
            raise AnalysisError("target delay must be positive")
        low, high = float(vdd_bounds[0]), float(vdd_bounds[1])
        if not 0.0 < low < high:
            raise AnalysisError(f"bad vdd bounds [{low}, {high}]")

        solved: dict = {}

        def worst_delay(vdd: float) -> float:
            result = solved.get(vdd)
            if result is None:
                result = self.delay_distribution(
                    cell, vdd, load_f
                ).percentile(percentile)
                solved[vdd] = result
            return result

        if worst_delay(high) > target_delay_s:
            raise AnalysisError(
                f"target unreachable even at V_DD = {high} V"
            )
        if worst_delay(low) < target_delay_s:
            return low
        for _ in range(40):
            mid = 0.5 * (low + high)
            if worst_delay(mid) > target_delay_s:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)
