"""The node-weighted ensemble readout, as the quadrature path computes it.

Tests compare the readout of columns that stay on the quadrature against this
bit for bit, and the closed-form columns against it within a tolerance.
"""

import numpy as np

from rvbsim import dynamics
from rvbsim.readout import pair_probabilities_batch


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
