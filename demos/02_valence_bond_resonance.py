"""Valence-bond resonance: singlet products swap coherently under equal exchange.

A horizontal singlet product is not an eigenstate once all four couplings
are on, so the system oscillates between the two pairing patterns at
sqrt(jx^2 + jy^2 - jx jy) with anti-correlated readouts.

Run:  python3 demos/02_valence_bond_resonance.py
"""

import numpy as np

from rvbsim import (
    ExchangeConfig,
    PulseSequence,
    ReadoutDirection,
    f_ss,
    hold,
    run_sequence,
    set_diabatic,
    singlet_x,
    visibilities,
)
from rvbsim.fitting import fit_damped_cosine
from rvbsim.readout import ensemble_probabilities

jx, jy = 50.0, 50.0  # MHz; all four couplings at 25 MHz
j = ExchangeConfig.balanced(jx, jy)
t = np.linspace(0.0, 120.0, 241)

seq = PulseSequence(init=singlet_x(), segments=(set_diabatic(j), hold(j, 0.0)),
                    dwell_times=tuple(t))
res = run_sequence(seq)

# singlet-singlet probability (outcome 0) in each readout direction
p_x = ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)[:, 0]
p_y = ensemble_probabilities(res, ReadoutDirection.VERTICAL)[:, 0]

fit = fit_damped_cosine(t, p_x)
print(f"fitted oscillation frequency: {fit.f:.4f} MHz")
print(f"closed-form frequency:        {f_ss(jx, jy):.4f} MHz")

vx, vy = visibilities(jx, jy)
print(f"peak-to-peak, horizontal readout: {np.ptp(p_x):.4f}  (law {vx:.4f})")
print(f"peak-to-peak, vertical readout:   {np.ptp(p_y):.4f}  (law {vy:.4f})")

# anti-correlation: when one pairing pattern peaks the other dips
corr = np.corrcoef(p_x, p_y)[0, 1]
print(f"correlation of the two readouts: {corr:+.3f}  (anti-phase)")

# detune the two directions and watch the frequency climb and the
# visibility drop in the horizontal readout
print("\n jx    jy    f_law   vis_x  vis_y")
for jx_k in (50.0, 70.0, 100.0):
    vx, vy = visibilities(jx_k, jy)
    print(f"{jx_k:5.0f} {jy:5.0f} {f_ss(jx_k, jy):7.2f} {vx:6.3f} {vy:6.3f}")
