"""Inputs shared by several test modules."""

import numpy as np
import pytest
import scipy.sparse


def _embed_shaped(dense, seed):
    """A reduced input shaped like the embed benchmark's: a dense Gaussian
    2^12 x 32, or a sparse 2^15 x 32 with ~3.4k random nonzeros plus a
    diagonal that keeps it full column rank (~10% of rows touched)."""
    rng = np.random.default_rng(seed)
    if dense:
        return rng.standard_normal((1 << 12, 32))
    n, d = 1 << 15, 32
    A = scipy.sparse.random(n, d, density=3400 / (n * d), random_state=rng, format="csr")
    lift = scipy.sparse.csr_matrix((rng.uniform(1, 2, d), (np.arange(d), np.arange(d))),
                                   shape=(n, d))
    return (A + lift).tocsr()


@pytest.fixture
def embed_shaped():
    """``embed_shaped(dense, seed)`` builds one of the reduced embed inputs."""
    return _embed_shaped
