"""Property-based fuzzing of the DP-Box command protocol.

Random (but phase-legal) command sequences must never corrupt the box:
every completed noising lands inside the guard window, the budget never
goes negative, and the only exception the box ever raises is
HardwareProtocolError (for genuinely illegal sequences).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Command, DPBox, DPBoxConfig, DPBoxDriver, GuardMode, Phase
from repro.errors import HardwareProtocolError


def _fresh_driver() -> DPBoxDriver:
    box = DPBox(DPBoxConfig(input_bits=10, range_frac_bits=5))
    drv = DPBoxDriver(box)
    drv.initialize(budget=50.0)
    drv.configure(epsilon_exponent=1, range_lower=0.0, range_upper=8.0)
    return drv


action = st.sampled_from(
    ["noise", "set_value", "set_eps", "toggle", "nothing", "reconfig"]
)


@settings(max_examples=25, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=25), data=st.data())
def test_random_legal_sequences_preserve_invariants(actions, data):
    drv = _fresh_driver()
    box = drv.box
    r_hi = 8.0  # track the currently configured upper bound
    for act in actions:
        if act == "noise":
            x = data.draw(st.floats(min_value=0.0, max_value=1.0)) * r_hi
            result = drv.noise(float(np.clip(x, 0, r_hi)))
            rt = box._ensure_runtime()
            lo = rt.origin + (rt.k_m - rt.k_th) * rt.delta
            hi = rt.origin + (rt.k_M + rt.k_th) * rt.delta
            assert lo - 1e-9 <= result.value <= hi + 1e-9
            assert result.cycles >= 2
        elif act == "set_value":
            drv._step(
                Command.SET_SENSOR_VALUE,
                data.draw(st.floats(0.0, 1.0)) * r_hi,
            )
        elif act == "set_eps":
            # nm <= 2: smaller eps at Bu=10 is legitimately uncalibratable
            # (the paper needs 20-bit values for eps >= 0.1, Section III-D).
            drv._step(Command.SET_EPSILON, data.draw(st.integers(0, 2)))
        elif act == "toggle":
            drv._step(Command.SET_THRESHOLD)
            drv._step(Command.DO_NOTHING)
        elif act == "nothing":
            drv._step(Command.DO_NOTHING)
        elif act == "reconfig":
            r_hi = float(data.draw(st.sampled_from([4.0, 8.0, 16.0])))
            drv.configure(
                epsilon_exponent=data.draw(st.integers(1, 2)),
                range_lower=0.0,
                range_upper=r_hi,
            )
            # A stale sensor value may now be out of range; refresh it.
            drv._step(Command.SET_SENSOR_VALUE, r_hi / 2)
        assert box.budget_engine.remaining >= 0.0
        assert box.phase in (Phase.WAITING, Phase.NOISING)


@settings(max_examples=25, deadline=None)
@given(
    cmds=st.lists(
        st.tuples(
            st.sampled_from(list(Command)),
            st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        max_size=20,
    )
)
def test_arbitrary_commands_only_raise_protocol_errors(cmds):
    """Even adversarial command streams fail cleanly or are absorbed."""
    box = DPBox(DPBoxConfig(input_bits=10, range_frac_bits=5))
    for cmd, val in cmds:
        box.issue(cmd, val)
        try:
            box.clock.tick()
        except HardwareProtocolError:
            box.issue(Command.DO_NOTHING)  # recover and continue fuzzing
            continue


@settings(max_examples=15, deadline=None)
@given(n_noisings=st.integers(min_value=1, max_value=30))
def test_budget_conservation_under_fuzz(n_noisings):
    drv = _fresh_driver()
    box = drv.box
    total_charged = 0.0
    left = 50.0  # replays the engine's debits: one subtraction per noising
    for _ in range(n_noisings):
        charged = drv.noise(4.0).charged
        total_charged += charged
        left -= charged
    eng = box.budget_engine
    assert left == eng.slot[0][0]
    assert max(left, 0.0) == eng.remaining
    assert total_charged <= 50.0 + 1e-9


@settings(max_examples=10, deadline=None)
@given(mode=st.sampled_from(list(GuardMode)), xs=st.lists(st.floats(0, 8), min_size=1, max_size=10))
def test_all_modes_all_values_complete(mode, xs):
    box = DPBox(DPBoxConfig(input_bits=10, range_frac_bits=5, guard_mode=mode))
    drv = DPBoxDriver(box)
    drv.initialize(budget=1e6)
    drv.configure(epsilon_exponent=1, range_lower=0.0, range_upper=8.0)
    for x in xs:
        result = drv.noise(float(x))
        assert result.cycles >= 2
