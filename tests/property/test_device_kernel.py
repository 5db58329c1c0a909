"""The device kernel against independent, readable oracles (hypothesis).

``Mosfet.drain_current`` and ``stack_leakage_current`` are written as
fused, inlined loops because every delay and leakage query in the
package ends in them.  These properties pin them, bit for bit, to the
readable forms of the same equations: the two current branches of
``repro.device.mosfet`` and a stack bisection composed from plain
``drain_current`` calls.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.leakage import stack_leakage_current
from repro.device.mosfet import Mosfet, MosfetParameters

_BISECTION_STEPS = 80

mosfet_parameters = st.builds(
    MosfetParameters,
    polarity=st.sampled_from(["nmos", "pmos"]),
    vt0=st.floats(0.05, 0.8),
    subthreshold_swing=st.floats(0.060, 0.095),
    i_spec=st.floats(1e-9, 1e-5),
    k_drive=st.floats(1e-5, 1e-3),
    alpha=st.floats(1.0, 2.0),
    dibl=st.floats(0.0, 0.1),
    vdsat_coeff=st.floats(0.3, 1.5),
    channel_length_modulation=st.floats(0.0, 0.1),
    temperature_k=st.floats(250.0, 300.0),
)
widths = st.floats(0.1, 10.0)
shifts = st.floats(-0.3, 0.3)


def _reference_vds_for_current(device, source_voltage, target, vdd, shift):
    """Smallest V_ds at which an off device carries ``target``."""
    vgs = -source_voltage

    def current(vds):
        return device.drain_current(vgs, vds, shift)

    if current(vdd) <= target:
        return vdd
    low, high = 0.0, vdd
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (low + high)
        if current(mid) < target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def _reference_stack_current(parameters, widths_um, vdd, shift):
    """Series-stack leakage by bisection on the log of the current."""
    devices = [Mosfet(parameters, width_um=w) for w in widths_um]
    if len(devices) == 1:
        return devices[0].off_current(vdd, shift)
    upper = min(d.off_current(vdd, shift) for d in devices)
    if upper <= 0.0:
        return 0.0
    lower = upper * 1e-12

    def total_drop(current):
        source = 0.0
        for device in devices:
            source += _reference_vds_for_current(
                device, source, current, vdd, shift
            )
            if source >= vdd:
                break
        return source

    log_low, log_high = math.log(lower), math.log(upper)
    for _ in range(_BISECTION_STEPS):
        log_mid = 0.5 * (log_low + log_high)
        if total_drop(math.exp(log_mid)) < vdd:
            log_low = log_mid
        else:
            log_high = log_mid
    return math.exp(0.5 * (log_low + log_high))


class TestDrainCurrentKernel:
    @settings(max_examples=300)
    @given(
        params=mosfet_parameters,
        width=widths,
        vgs=st.floats(-3.0, 3.0),
        vds=st.floats(0.0, 3.0),
        shift=shifts,
    )
    def test_fused_equals_branch_sum(self, params, width, vgs, vds, shift):
        device = Mosfet(params, width_um=width)
        expected = device.subthreshold_current(
            vgs, vds, shift
        ) + device.strong_inversion_current(vgs, vds, shift)
        assert device.drain_current(vgs, vds, shift) == expected


class TestStackSolver:
    @settings(deadline=None, max_examples=60)
    @given(
        params=mosfet_parameters,
        # Up to 4-stacks and 3.3 V, so the solver's early exits (the
        # top device's bracket decision above all) meet deep stacks
        # and high supplies.
        stack=st.lists(widths, min_size=1, max_size=4),
        vdd=st.floats(0.05, 3.3),
        # Down to -0.6 V so some stacks conduct above threshold and the
        # alpha-power branch of the inlined equation is exercised too.
        shift=st.floats(-0.6, 0.3),
    )
    def test_shared_solver_equals_readable_bisection(
        self, params, stack, vdd, shift
    ):
        assert stack_leakage_current(
            params, stack, vdd, shift
        ) == _reference_stack_current(params, stack, vdd, shift)
