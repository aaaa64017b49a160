"""Earlier forms of the data path's full-length steps, kept as references.

The library draws the chain's innovations straight into the state array and
scans it in place, and forms the unit outputs' (C x)^2 block by block, so
that neither step holds a second array as long as the chain.  The forms
below are the ones they replaced: all innovations drawn into one d_x x
(n - 1) array before the scan, and C x as one product over all n columns.
The tests require the library to return their exact bits, at the shapes
where the BLAS product allows it.
"""

from __future__ import annotations

import numpy as np

from spectral_rnn.recovery import _output_map
from spectral_rnn.sequence_models import (_linear_scan, _scan_levels,
                                          stationary_covariance)


def sample_markov_chain(spec, n, seed):
    """Draw x_0, then every innovation into one array, then scan."""
    rng = np.random.default_rng(seed)
    d = spec.d_x
    x = np.empty((d, n))
    if spec.init == "stationary":
        x[:, 0] = rng.multivariate_normal(np.zeros(d), stationary_covariance(spec),
                                          method="cholesky")
    else:
        x[:, 0] = 0.0
    eps = rng.standard_normal((d, n - 1))
    eps *= spec.sigma
    _linear_scan(_scan_levels(spec.W, n - 1), x, eps)
    return x


def unit_outputs(data, C, A2):
    """Z = M y - (C x)^2 with C x and its square as whole k x n arrays."""
    Z = _output_map(A2) @ data.y
    Z -= (C @ data.x) ** 2
    return Z
