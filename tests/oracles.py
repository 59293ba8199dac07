"""Independent oracles that tests compare the library against."""

import math

import numpy as np

from bicomplex._arrays import real_block_matrix


def sampled_sup_norm(T, samples: int, seed: int, refine_steps: int) -> float:
    """Estimate sup over the unit sphere of |Tx| / sqrt(2) by random sampling.

    Works through the real block form of the operator, never through the hat
    decomposition, so it is an independent evaluation path for the closed-form
    norm.  Directions are drawn uniformly on the coefficient sphere; the best
    candidate is optionally sharpened by power iteration on R^T R.  Every
    evaluation is a genuine unit-vector ratio, so the estimate can only
    approach the true supremum from below.
    """
    R = real_block_matrix(T.coeffs)
    dim = R.shape[1]
    rng = np.random.default_rng(seed)
    best = 0.0
    best_x = None
    remaining = int(samples)
    while remaining > 0:
        batch = min(remaining, 200_000)
        X = rng.standard_normal((batch, dim))
        lengths = np.linalg.norm(X, axis=1)
        lengths[lengths == 0.0] = 1.0
        X /= lengths[:, None]
        values = np.linalg.norm(X @ R.T, axis=1)
        k = int(np.argmax(values))
        if values[k] > best:
            best = float(values[k])
            best_x = X[k].copy()
        remaining -= batch
    if refine_steps > 0 and best_x is not None:
        x = best_x
        for _ in range(refine_steps):
            y = R @ x
            z = R.T @ y
            length = np.linalg.norm(z)
            if length == 0.0:
                break
            x = z / length
            best = max(best, float(np.linalg.norm(R @ x)))
    return best / math.sqrt(2.0)
