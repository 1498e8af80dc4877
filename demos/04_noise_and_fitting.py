"""Quasi-static dephasing, shot-sampled readout, and damped-cosine recovery.

Run:  python3 demos/04_noise_and_fitting.py
"""

import numpy as np

from rvbsim import (
    ExchangeConfig,
    NoiseModel,
    PulseSequence,
    ReadoutDirection,
    dephasing_envelope,
    hold,
    run_sequence,
    sample_shots,
    set_diabatic,
    sigma_from_tphi,
    singlet_x,
)
from rvbsim.fitting import fit_damped_cosine
from rvbsim.readout import ensemble_probabilities

tphi = 130.0  # ns
sigma = sigma_from_tphi(tphi)
print(f"target T_phi {tphi:.0f} ns  <->  frequency noise sigma_f = {sigma:.3f} MHz")

# The quasi-static ensemble is a 16-node Gauss-Hermite rule: its weighted
# average of the cosine is the Gaussian envelope (the characteristic function
# of the offset) to round-off over these times, where 5000 random draws would
# be off by ~0.01.
noise = NoiseModel(sigma_f=sigma, n_samples=16)
for t in (65.0, 130.0, 195.0):
    print(f"  <cos> at t = {t:5.1f} ns: {dephasing_envelope(noise, t):+.8f} "
          f"(gaussian {np.exp(-(t/tphi)**2):+.8f})")

# Full chain: noisy evolution -> readout probabilities -> 500 shots -> fit.
j = ExchangeConfig.balanced(50.0, 50.0)
t = np.linspace(0.0, 300.0, 61)
seq = PulseSequence(init=singlet_x(), segments=(set_diabatic(j), hold(j, 0.0)),
                    dwell_times=tuple(t))
res = run_sequence(seq, noise)
# quadrature-weighted ensemble average of the horizontal readout, (dwell, 4)
probs = ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)

# one multinomial draw gives 500 recorded shots at every dwell point
measured = sample_shots(probs, 500, (2, 0)).probabilities()[:, 0]

fit = fit_damped_cosine(t, measured)
print("\nfit of the 500-shot trace:")
print(f"  f     = {fit.f:7.3f} MHz   (true 50)")
print(f"  T_phi = {fit.tphi:7.1f} ns    (target {tphi:.0f})")
print(f"  A     = {fit.a:7.3f}       (law 3/8)")
print(f"  A0    = {fit.a0:7.3f}       (law 5/8)")
print(f"  residual rms = {fit.residual_rms:.4f}")
