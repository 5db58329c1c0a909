"""Gate- and stack-level subthreshold leakage.

The paper's third power component (Section 2) is leakage.  Two facts
matter for the tools it calls for:

* a single off device leaks ``I_off = I_spec * 10^(-V_T / S_th)`` — the
  exponential V_T dependence that creates the optimum of Fig. 4; and
* *series* off devices leak far less than one off device (the "stack
  effect"): the intermediate node floats up, reverse-biasing the upper
  device's V_gs and adding DIBL relief.  This is also why MTCMOS sleep
  devices work.  :func:`stack_leakage_current` solves the series stack
  self-consistently.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.device.mosfet import _MAX_EXP_ARG, Mosfet, MosfetParameters
from repro.errors import DeviceModelError

__all__ = [
    "stack_leakage_current",
    "gate_leakage_current",
    "StackLeakageModel",
]

_BISECTION_STEPS = 80


def stack_leakage_current(
    parameters: MosfetParameters,
    widths_um: Sequence[float],
    vdd: float,
    vt_shift: float = 0.0,
) -> float:
    """Leakage through a series stack of all-off devices.

    The stack hangs between V_DD and ground with every gate grounded.
    A single current flows through all devices; each intermediate node
    voltage follows from current continuity.  We bisect on the current
    (log domain): for a trial current, accumulate the V_ds each device
    needs, then compare the total against V_DD.

    Each device's V_ds is itself a bisection (current is monotone
    increasing in V_ds; a device that cannot carry the trial current
    even with the full supply across it drops all of V_DD).  Its
    V_gs is minus its source voltage.  That inner loop runs
    :meth:`Mosfet.drain_current
    <repro.device.mosfet.Mosfet.drain_current>` inline, with the same
    float-op sequence, because it is the innermost loop of every
    leakage query.

    Parameters
    ----------
    parameters:
        Transistor flavour of the stack devices.
    widths_um:
        Width of each device, bottom (source-grounded) first.
    vdd:
        Rail-to-rail voltage across the stack [V].
    vt_shift:
        External threshold shift (e.g. SOIAS standby bias) [V].

    Returns
    -------
    float
        Stack leakage current [A].  For a single device this equals
        ``Mosfet.off_current``.

    Raises
    ------
    DeviceModelError
        For an empty stack, a non-finite ``vdd``, ``vt_shift`` or
        width, or a non-positive ``vdd``.
    """
    if not widths_um:
        raise DeviceModelError("stack must contain at least one device")
    # NaN slips through every ordered comparison below (and a NaN width
    # through ``Mosfet``'s), so non-finite inputs are rejected here.
    for name, value in (("vdd", vdd), ("vt_shift", vt_shift)):
        if not math.isfinite(value):
            raise DeviceModelError(f"{name} must be finite, got {value}")
    if not all(map(math.isfinite, widths_um)):
        raise DeviceModelError(f"widths must be finite, got {list(widths_um)}")
    if vdd <= 0.0:
        raise DeviceModelError(f"vdd must be positive, got {vdd}")
    devices = [Mosfet(parameters, width_um=w) for w in widths_um]
    if len(devices) == 1:
        return devices[0].off_current(vdd, vt_shift)

    # Bracket the answer: at most the weakest single-device off current,
    # at least that value suppressed by many decades.
    upper = min(d.off_current(vdd, vt_shift) for d in devices)
    if upper <= 0.0:
        return 0.0

    exp = math.exp
    p = parameters
    drives = [(p.i_spec * d.width_um, p.k_drive * d.width_um) for d in devices]
    vt0s = p.vt0 + vt_shift
    dibl = p.dibl
    n_phi_t = p._n_phi_t
    phi_t = p._phi_t
    alpha = p.alpha
    half_alpha = p.alpha / 2.0
    vdsat_coeff = p.vdsat_coeff
    clm = p.channel_length_modulation
    floor = -_MAX_EXP_ARG

    # The total drop is increasing in current; find where it is V_DD.
    # Both bisections stop early once their midpoint equals an end of
    # the bracket: from there every further step keeps the midpoint, so
    # the result is bit-identical to running all the steps.
    top = len(drives) - 1
    log_low, log_high = math.log(upper * 1e-12), math.log(upper)
    for _ in range(_BISECTION_STEPS):
        log_mid = 0.5 * (log_low + log_high)
        if log_mid == log_low or log_mid == log_high:
            return exp(log_mid)
        target = exp(log_mid)
        source = 0.0
        for index, (iw, kw) in enumerate(drives):
            # Smallest V_ds at which this device carries ``target``;
            # the first pass probes V_ds = V_DD.
            vgs = -source
            vds = vdd
            low = high = 0.0
            probing = True
            for _ in range(_BISECTION_STEPS + 1):
                overdrive = vgs - (vt0s - dibl * vds)
                exponent = (0.0 if overdrive > 0.0 else overdrive) / n_phi_t
                if exponent < floor:
                    exponent = floor
                drain_arg = -vds / phi_t
                if drain_arg < floor:
                    drain_arg = floor
                current = iw * exp(exponent) * (1.0 - exp(drain_arg))
                if overdrive > 0.0:
                    i_dsat = kw * overdrive**alpha
                    vdsat = vdsat_coeff * overdrive**half_alpha
                    if vds >= vdsat:
                        current += i_dsat * (1.0 + clm * (vds - vdsat))
                    else:
                        ratio = vds / vdsat
                        current += i_dsat * ratio * (2.0 - ratio)
                if probing:
                    if current <= target:
                        break
                    probing = False
                    low, high = 0.0, vdd
                elif current < target:
                    low = vds
                else:
                    high = vds
                if index == top:
                    # The final V_ds lies in [low, high] and float
                    # addition is monotone, so once the bracket alone
                    # decides ``source + vds < vdd`` the top device can
                    # stop; either end then gives the same decision.
                    if source + high < vdd:
                        vds = high
                        break
                    if source + low >= vdd:
                        vds = low
                        break
                vds = 0.5 * (low + high)
                if vds == low or vds == high:
                    break
            source += vds
            if source >= vdd:
                break
        if source < vdd:
            log_low = log_mid
        else:
            log_high = log_mid
    return exp(0.5 * (log_low + log_high))


def gate_leakage_current(
    nmos_parameters: MosfetParameters,
    pmos_parameters: MosfetParameters,
    nmos_widths_um: Sequence[float],
    pmos_widths_um: Sequence[float],
    vdd: float,
    output_high_probability: float = 0.5,
    vt_shift: float = 0.0,
) -> float:
    """State-averaged leakage of a static CMOS gate.

    When the output is high the pull-down (NMOS) network leaks; when it
    is low the pull-up (PMOS) network leaks.  Series networks get the
    stack-effect suppression; parallel devices would each leak alone,
    which is conservative to ignore here because the cell layer models
    the worst single path.

    ``output_high_probability`` lets signal statistics weight the two
    states (the paper's point that activity shapes even leakage).
    """
    if not 0.0 <= output_high_probability <= 1.0:
        raise DeviceModelError("output_high_probability must be in [0, 1]")
    nmos_leak = stack_leakage_current(
        nmos_parameters, nmos_widths_um, vdd, vt_shift
    )
    pmos_leak = stack_leakage_current(
        pmos_parameters, pmos_widths_um, vdd, vt_shift
    )
    p_high = output_high_probability
    return p_high * nmos_leak + (1.0 - p_high) * pmos_leak


class StackLeakageModel:
    """Cached stack-effect evaluator for one transistor flavour.

    Characterization sweeps ask for the same (depth, width, V_DD, shift)
    tuples repeatedly; this memoizes the bisection.  The characterizer
    and its decoded plans all query leakage through this memo, so it is
    the one place that builds the memo key.
    """

    def __init__(self, parameters: MosfetParameters):
        self.parameters = parameters
        self._cache: dict = {}

    def current(
        self,
        widths_um: Sequence[float],
        vdd: float,
        vt_shift: float = 0.0,
    ) -> float:
        """Stack leakage, memoized on the exact argument tuple.

        The key holds the inputs the solver evaluates, unrounded, so a
        cached value is a pure function of its key: pool workers,
        scheduler workers, resumed runs and serial runs agree whatever
        order they ask in.
        """
        key = (tuple(widths_um), vdd, vt_shift)
        if key not in self._cache:
            self._cache[key] = stack_leakage_current(
                self.parameters, widths_um, vdd, vt_shift
            )
        return self._cache[key]

    def suppression_factor(
        self, depth: int, width_um: float, vdd: float, vt_shift: float = 0.0
    ) -> float:
        """How much a depth-N uniform stack beats a single device.

        Returns ``I_single / I_stack`` (>= 1).  The classic result is
        roughly an order of magnitude for a 2-stack.
        """
        if depth < 1:
            raise DeviceModelError("depth must be >= 1")
        single = self.current([width_um], vdd, vt_shift)
        stacked = self.current([width_um] * depth, vdd, vt_shift)
        if stacked <= 0.0:
            return math.inf
        return single / stacked
