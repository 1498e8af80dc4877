"""Preparing the equal-exchange eigenstates: adiabatic ramp and half-swap pulse.

The ground state follows from ramping the vertical couplings up slowly
(the singlet product is the ground state while jx >> jy); the excited
state follows from a half-period exchange pulse on a single vertical bond,
which permutes two spins and turns nearest-neighbour pairing into
diagonal pairing.

Run:  python3 demos/05_state_preparation.py
"""

import numpy as np

from rvbsim import (
    Basis,
    ExchangeConfig,
    PulseSequence,
    ReadoutDirection,
    SegmentKind,
    SequenceStack,
    d_wave,
    exchange_pulse,
    hold,
    run_sequence,
    s_wave,
    set_diabatic,
    singlet_x,
)
from rvbsim.readout import ensemble_probabilities

jj = 50.0  # equal-exchange sums (all couplings at 25 MHz)
start = ExchangeConfig.balanced(jj, 0.5)
target = ExchangeConfig.balanced(jj, jj)

# One stack runs every ramp time in a single call, one column per ramp: each
# segment has a row of couplings and a duration per column, and the ramp step
# count is still chosen per column.
print("adiabatic ramp quality vs ramp time:")
print("  t_ramp  |<s|psi>|^2   residual oscillation")
t_ramps = (40.0, 140.0, 400.0, 4000.0)
n = len(t_ramps)
dwell = tuple(np.linspace(0.0, 40.0, 41))
ramps = SequenceStack(
    init=singlet_x(),
    kinds=(SegmentKind.SET_DIABATIC, SegmentKind.LINEAR_RAMP, SegmentKind.HOLD),
    couplings=np.repeat([[start.as_array()], [target.as_array()], [target.as_array()]], n, axis=1),
    durations=[np.zeros(n), t_ramps, np.zeros(n)],
    dwell_times=dwell,
)
res = run_sequence(ramps)  # amplitudes: (ramp, node, dwell, sector dim)
fid = np.abs(res.states[:, 0] @ s_wave(Basis.FULL16).amplitudes.conj()) ** 2
p_x = ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)[..., 0]
for t_ramp, fid_k, p_k in zip(t_ramps, fid, p_x):
    print(f"  {t_ramp:6.0f}  {fid_k.mean():10.6f}   {np.ptp(p_k):.2e}")

# Half-swap pulse: evolve under a single bond for half its swap period.
j23 = 20.0
t_j = 500.0 / j23  # ns
dwell = tuple(np.linspace(0.0, 80.0, 41))
seq = PulseSequence(
    init=singlet_x(),
    segments=(exchange_pulse(ExchangeConfig(0, 0, j23, 0), t_j),
              set_diabatic(target), hold(target, 0.0)),
    dwell_times=dwell,
)
res = run_sequence(seq)
fid_d = np.abs(res.states[0] @ d_wave(Basis.FULL16).amplitudes.conj()) ** 2
p_x = ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)[:, 0]
p_y = ensemble_probabilities(res, ReadoutDirection.VERTICAL)[:, 0]
print(f"\nhalf-swap pulse ({t_j:.0f} ns on the Q23 bond):")
print(f"  excited-state fidelity: {fid_d.min():.6f}")
print(f"  singlet-singlet probabilities: {p_x.mean():.3f} / {p_y.mean():.3f} (both 1/4)")
print(f"  residual oscillation: {np.ptp(p_x):.2e}")

# Sweep the pulse duration: the oscillation visibility vanishes
# periodically at every odd half-period.
print("\npulse-duration sweep (visibility of the following oscillation):")
scales = (0.0, 0.5, 1.0, 1.5, 2.0)
n = len(scales)
pulses = SequenceStack(
    init=singlet_x(),
    kinds=(SegmentKind.EXCHANGE_PULSE, SegmentKind.SET_DIABATIC, SegmentKind.HOLD),
    couplings=np.repeat([[[0, 0, j23, 0]], [target.as_array()], [target.as_array()]], n, axis=1),
    durations=[np.multiply(scales, t_j), np.zeros(n), np.zeros(n)],
    dwell_times=dwell,
)
p = ensemble_probabilities(run_sequence(pulses), ReadoutDirection.HORIZONTAL)[..., 0]
for scale, p_k in zip(scales, p):
    print(f"  t_J = {scale * t_j:5.1f} ns -> visibility {np.ptp(p_k):.3f}")
