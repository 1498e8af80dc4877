"""Quasi-static dephasing, shot-sampled readout, and damped-cosine recovery.

Run:  python3 demos/04_noise_and_fitting.py
"""

import numpy as np

from rvbsim import (
    ExchangeConfig,
    NoiseModel,
    PulseSequence,
    ReadoutConfig,
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
from rvbsim.readout import pair_probabilities_batch

tphi = 130.0  # ns
sigma = sigma_from_tphi(tphi)
print(f"target T_phi {tphi:.0f} ns  <->  frequency noise sigma_f = {sigma:.3f} MHz")

# Monte-Carlo ensemble average of the cosine reproduces the Gaussian envelope.
noise = NoiseModel(sigma_f=sigma, n_samples=5000, seed=1)
for t in (65.0, 130.0, 195.0):
    print(f"  <cos> at t = {t:5.1f} ns: {dephasing_envelope(noise, t):+.4f} "
          f"(gaussian {np.exp(-(t/tphi)**2):+.4f})")

# Full chain: noisy evolution -> readout probabilities -> 500 shots -> fit.
j = ExchangeConfig.balanced(50.0, 50.0)
t = np.linspace(0.0, 300.0, 61)
seq = PulseSequence(init=singlet_x(), segments=(set_diabatic(j), hold(j, 0.0)),
                    dwell_times=tuple(t))
res = run_sequence(seq, NoiseModel(sigma_f=sigma, n_samples=800, seed=2))
# read out the (samples, dwell, 2) singlet-sector amplitudes, then average the ensemble
probs = pair_probabilities_batch(res.amplitudes, ReadoutDirection.HORIZONTAL, res.sector)
probs = probs.mean(axis=0)

measured = np.empty(len(t))
for k in range(len(t)):
    cfg = ReadoutConfig(ReadoutDirection.HORIZONTAL, n_shots=500, seed=100 + k)
    measured[k] = sample_shots(probs[k], cfg).probabilities()[0]

fit = fit_damped_cosine(t, measured)
print("\nfit of the 500-shot trace:")
print(f"  f     = {fit.f:7.3f} MHz   (true 50)")
print(f"  T_phi = {fit.tphi:7.1f} ns    (target {tphi:.0f})")
print(f"  A     = {fit.a:7.3f}       (law 3/8)")
print(f"  A0    = {fit.a0:7.3f}       (law 5/8)")
print(f"  residual rms = {fit.residual_rms:.4f}")
