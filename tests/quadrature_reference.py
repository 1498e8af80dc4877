"""A reference node evolution of a noisy run, and its node-weighted readout.

``run_sequence`` keeps no node amplitudes for a column it reads out in closed
form.  :func:`reference_run` evolves every column at every quadrature node, as
if no column were exact, without going through ``run_sequence``'s dwell code:
it runs the segments before the dwell as a sequence of their own and evolves
the dwell itself with the ensemble kernel.  A column on the quadrature thus
matches its run bit for bit, and a closed-form column can be compared with the
quadrature it replaces.
"""

import numpy as np

from rvbsim import dynamics
from rvbsim.basis import lift
from rvbsim.dynamics import PulseSegment, PulseSequence, SequenceResult, f_ss, run_sequence
from rvbsim.hamiltonians import ExchangeConfig, zeeman_full
from rvbsim.readout import pair_probabilities_batch


def reference_run(seq, noise, *, zeeman=None, noise_reference_mhz=None) -> SequenceResult:
    """Node amplitudes of every column of a noisy ``seq`` with a dwell grid, none exact."""
    cols = seq.durations.shape[1:]
    couplings = seq.couplings.reshape(len(seq.kinds), -1, 4)
    n_cols = couplings.shape[1]
    if noise_reference_mhz is None:
        f_ref = np.array([f_ss(c.jx, c.jy) for c in (ExchangeConfig(*j) for j in couplings[-1])])
    else:
        f_ref = np.broadcast_to(np.asarray(noise_reference_mhz, dtype=float), (n_cols,))
    offsets, weights = noise.quadrature()
    lam = (1.0 + offsets[None, :] / f_ref[:, None]).ravel()
    psi16 = lift(seq.init.amplitudes, seq.init.basis)
    zeeman16 = None if zeeman is None else zeeman_full(zeeman)
    sector, q, qh, bonds = dynamics._sector(psi16, zeeman16)
    if len(seq.kinds) > 1:
        prefix = PulseSequence(seq.init, tuple(
            PulseSegment(kind, seq.couplings[k], seq.durations[k])
            for k, kind in enumerate(seq.kinds[:-1])))
        entering = run_sequence(prefix, noise, zeeman=zeeman,
                                noise_reference_mhz=f_ref.reshape(cols)).amplitudes
        entering = entering.reshape(len(lam), -1)
    else:
        entering = np.tile(q @ psi16, (len(lam), 1))
    grid = np.asarray(seq.dwell_times)
    times = grid[None, :] if grid.ndim == 1 else np.repeat(grid, len(weights), axis=0)
    zh = 0.0 if zeeman16 is None else q @ zeeman16 @ qh
    amps = dynamics._evolve_ensemble(entering, couplings[-1], bonds, zh, lam, times)
    return SequenceResult(sector, weights, np.zeros(cols, dtype=bool), None,
                          amps.reshape(cols + (len(weights), *amps.shape[1:])))


def quadrature_readout(res, direction):
    """weights @ |a F|^2 S over the nodes of ``res.amplitudes``, in blocks of BLOCK_STATES states."""
    amps = res.amplitudes
    n_nodes, n_dwell, d = amps.shape[-3:]
    columns = amps.reshape(-1, n_nodes, n_dwell, d)
    step = max(1, dynamics.BLOCK_STATES // (n_nodes * n_dwell))
    mean = np.concatenate([
        res.weights @ pair_probabilities_batch(columns[i:i + step], direction, res.sector)
        .reshape(-1, n_nodes, n_dwell * 4) for i in range(0, len(columns), step)])
    return mean.reshape(amps.shape[:-3] + (n_dwell, 4))
