"""Embedding-quality measurements and exact moment identities.

All Monte-Carlo estimators report standard errors; quantity comparisons in
the test suites use >= 3-SE bands.  Trial i of any probe derives its seed
as ``derive_seed(master_seed, i)``, so suites are reproducible and trials
are order-independent.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._field import derive_seed
from .apply import apply as _apply
from .errors import ParameterError

_ORTHO_TOL = 1e-10


@dataclass
class DistortionReport:
    """Extreme singular values of the embedded basis versus the target band."""

    s_min: float
    s_max: float
    opnorm_err: float
    eps_target: float
    passed: bool

    def to_dict(self):
        return {"pass" if k == "passed" else k: v for k, v in asdict(self).items()}


@dataclass
class MomentProbe:
    """Monte-Carlo estimate of a trace-moment functional."""

    q: int
    trials: int
    estimate: float
    std_error: float

    def __post_init__(self):
        if self.q < 1:
            raise ParameterError("q must be >= 1")
        if not math.isfinite(self.estimate):
            raise ParameterError("estimate overflowed; use a smaller q")
        if self.std_error < 0:
            raise ParameterError("std_error must be >= 0")

    def root(self):
        """estimate ** (1 / (2q)) for band comparisons."""
        return self.estimate ** (1.0 / (2 * self.q))

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_samples(cls, q, samples):
        trials = samples.size
        se = float(samples.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        return cls(q=q, trials=trials, estimate=float(samples.mean()), std_error=se)


@dataclass
class TrialSummary:
    """Outcome of repeated embedding trials."""

    trials: int
    failures: int
    eps_target: float
    quantiles: dict = field(default_factory=dict)

    @property
    def failure_fraction(self):
        return self.failures / self.trials

    def to_dict(self):
        return {
            "trials": self.trials,
            "failures": self.failures,
            "failure_fraction": self.failure_fraction,
            "eps_target": self.eps_target,
            "quantiles": self.quantiles,
        }


def orthonormality_defect(U):
    """Operator norm of U^T U - I."""
    U = np.asarray(U)
    G = U.T @ U - np.eye(U.shape[1])
    return float(np.linalg.norm(G, 2))


def distortion(sketch, U, eps_target=0.0):
    """Singular-value band of the sketched orthonormal basis."""
    defect = orthonormality_defect(U)
    if defect > _ORTHO_TOL:
        raise ParameterError(
            f"basis is not orthonormal: ||U^T U - I|| = {defect:.3e} > {_ORTHO_TOL:.0e}"
        )
    X = _apply(sketch, U)
    svals = np.linalg.svd(X, compute_uv=False)
    s_min = float(svals[-1])
    s_max = float(svals[0])
    opnorm_err = float(np.max(np.abs(svals**2 - 1.0)))
    passed = bool(1.0 - eps_target <= s_min and s_max <= 1.0 + eps_target)
    return DistortionReport(
        s_min=s_min,
        s_max=s_max,
        opnorm_err=opnorm_err,
        eps_target=eps_target,
        passed=passed,
    )


def haar_basis(n, d, rng):
    """Haar-random n x d orthonormal basis (QR of a Gaussian, sign-fixed)."""
    G = rng.standard_normal((n, d))
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))


def coordinate_basis(n, d, rng):
    """Random d-dimensional coordinate subspace of R^n."""
    idx = rng.choice(n, size=d, replace=False)
    U = np.zeros((n, d))
    U[np.sort(idx), np.arange(d)] = 1.0
    return U


def spiked_basis(n, d, rng):
    """One coordinate direction completed with a Haar-random complement."""
    spike = int(rng.integers(n))
    G = np.zeros((n, d))
    G[spike, 0] = 1.0
    G[:, 1:] = rng.standard_normal((n, d - 1))
    G[spike, 1:] = 0.0
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))


SAMPLERS = {
    "haar": haar_basis,
    "coordinate": coordinate_basis,
    "spiked": spiked_basis,
}


def _check_trials(trials):
    if trials < 1:
        raise ParameterError("trials must be >= 1")


def embedding_trial(builder, sampler, trials, eps, seed):
    """Failure fraction of ``trials`` fresh (sketch, basis) draws.

    ``builder(seed, U)`` returns a sketch (score-adapted builders may use
    U; oblivious ones ignore it); ``sampler(rng)`` returns a basis.
    Distortion of a trial is max(s_max - 1, 1 - s_min).
    """
    _check_trials(trials)
    distortions = np.empty(trials)
    failures = 0
    for i in range(trials):
        rng = np.random.default_rng(derive_seed(seed, 2 * i + 1))
        U = sampler(rng)
        sketch = builder(derive_seed(seed, 2 * i), U)
        rep = distortion(sketch, U, eps)
        distortions[i] = max(rep.s_max - 1.0, 1.0 - rep.s_min)
        failures += not rep.passed
    quantiles = {
        str(q): float(np.quantile(distortions, q)) for q in (0.5, 0.9, 0.95)
    }
    return TrialSummary(
        trials=trials, failures=failures, eps_target=eps, quantiles=quantiles
    )


def _moment_samples(values, q):
    """tr(E^2q) per sample from eigenvalues, guarding overflow."""
    with np.errstate(over="ignore"):
        powered = values ** (2 * q)
        sample = powered.sum() / values.size
    if not np.isfinite(sample):
        raise ParameterError(
            f"trace power 2q = {2 * q} overflowed; use a smaller q"
        )
    return sample


def trace_moment(builder, U, q, trials, seed):
    """Monte-Carlo E[tr((X^T X - I)^(2q))] with X the scaled sketch of U.

    tr is the trace normalized by the basis dimension; powers are taken
    through a symmetric eigendecomposition.
    """
    if not 1 <= q <= 32:
        raise ParameterError(f"q must be in [1, 32], got {q}")
    _check_trials(trials)
    d = U.shape[1]
    samples = np.empty(trials)
    for i in range(trials):
        sketch = builder(derive_seed(seed, i), U)
        X = _apply(sketch, U)
        E = X.T @ X - np.eye(d)
        w = np.linalg.eigvalsh(E)
        samples[i] = _moment_samples(w, q)
    return MomentProbe.from_samples(q, samples)


def decoupled_gamma_moment(builder, U, q, trials, seed):
    """Monte-Carlo E[tr(Gamma^(2q))] for Gamma = M^T N + N^T M.

    M and N are the *unscaled* products S1 U and S2 U of two independent
    sketches.
    """
    if not 1 <= q <= 32:
        raise ParameterError(f"q must be in [1, 32], got {q}")
    _check_trials(trials)
    samples = np.empty(trials)
    for i in range(trials):
        sk1 = builder(derive_seed(seed, 2 * i), U)
        sk2 = builder(derive_seed(seed, 2 * i + 1), U)
        M = _apply(sk1, U) / sk1.scale
        N = _apply(sk2, U) / sk2.scale
        gamma = M.T @ N + N.T @ M
        w = np.linalg.eigvalsh(gamma)
        samples[i] = _moment_samples(w, q)
    return MomentProbe.from_samples(q, samples)


def diagonal_offdiagonal_split(sketch, U):
    """Split the unscaled embedding error into column-energy and cross terms.

    Returns (diag, offdiag, norms) with
    diag = sum_j (sum_i S_ij^2 - p*m) u_j u_j^T and
    diag + offdiag + p*m*I = (SU)^T (SU) reproduced exactly.
    """
    B = _apply(sketch, U) / sketch.scale  # ParameterError unless U has n rows
    U = np.asarray(U)
    pm = sketch.pm
    energy = sketch.column_energy()
    diag = U.T @ (U * (energy - pm)[:, None])
    total = B.T @ B - pm * np.eye(U.shape[1])
    off = total - diag
    norms = {
        "diag": float(np.linalg.norm(diag, 2)),
        "offdiag": float(np.linalg.norm(off, 2)),
    }
    return diag, off, norms


def gaussian_reference(m, d, t):
    """Scaled singular-value band for an m x d standard Gaussian.

    Returns ((lower, upper), probability_bound) where the band is
    [1 - sqrt(d/m) - t/sqrt(m), 1 + sqrt(d/m) + t/sqrt(m)] and the bound
    is max(0, 1 - 2 exp(-t^2 / 2)).
    """
    if m <= d:
        raise ParameterError(f"need m > d, got m = {m}, d = {d}")
    if t < 0:
        raise ParameterError("t must be >= 0")
    half = math.sqrt(d / m) + t / math.sqrt(m)
    bound = max(0.0, 1.0 - 2.0 * math.exp(-(t**2) / 2.0))
    return (1.0 - half, 1.0 + half), bound
