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
from .errors import ParameterError, as_int, as_real

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
        self.q, self.trials = as_int("q", self.q, 1), as_int("trials", self.trials, 1)
        self.estimate = as_real("estimate", self.estimate, "(-inf, inf)")
        self.std_error = as_real("std_error", self.std_error, "[0, inf)")

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
    eps_target = as_real("eps_target", eps_target, "[0, inf)")
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


def embedding_trial(builder, sampler, trials, eps, seed):
    """Failure fraction of ``trials`` fresh (sketch, basis) draws.

    ``builder(seed, U)`` returns a sketch (score-adapted builders may use
    U; oblivious ones ignore it); ``sampler(rng)`` returns a basis.
    Distortion of a trial is max(s_max - 1, 1 - s_min).
    """
    trials, eps = as_int("trials", trials, 1), as_real("eps", eps, "[0, inf)")
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


def _moment_probe(q, trials, sample):
    """Monte-Carlo E[tr(E^2q)] over the symmetric matrices E = sample(i),
    i < trials; tr is normalized by the dimension and the power taken
    through the eigenvalues, guarding overflow.  q lies in [1, 32]."""
    q, trials = as_int("q", q, 1), as_int("trials", trials, 1)
    if q > 32:
        raise ParameterError(f"q must be in [1, 32], got {q}")
    samples = np.empty(trials)
    for i in range(trials):
        w = np.linalg.eigvalsh(sample(i))
        with np.errstate(over="ignore"):
            samples[i] = (w ** (2 * q)).sum() / w.size
        if not np.isfinite(samples[i]):
            raise ParameterError(f"trace power 2q = {2 * q} overflowed; use a smaller q")
    return MomentProbe.from_samples(q, samples)


def trace_moment(builder, U, q, trials, seed):
    """Monte-Carlo E[tr((X^T X - I)^(2q))] with X the scaled sketch of U."""
    d = U.shape[1]

    def sample(i):
        X = _apply(builder(derive_seed(seed, i), U), U)
        return X.T @ X - np.eye(d)

    return _moment_probe(q, trials, sample)


def decoupled_gamma_moment(builder, U, q, trials, seed):
    """Monte-Carlo E[tr(Gamma^(2q))] for Gamma = M^T N + N^T M.

    M and N are the *unscaled* products S1 U and S2 U of two independent
    sketches.
    """

    def sample(i):
        sk1 = builder(derive_seed(seed, 2 * i), U)
        sk2 = builder(derive_seed(seed, 2 * i + 1), U)
        M = _apply(sk1, U) / sk1.scale
        N = _apply(sk2, U) / sk2.scale
        return M.T @ N + N.T @ M

    return _moment_probe(q, trials, sample)


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
    m, d, t = as_int("m", m, 1), as_int("d", d, 1), as_real("t", t, "[0, inf)")
    if m <= d:
        raise ParameterError(f"need m > d, got m = {m}, d = {d}")
    half = math.sqrt(d / m) + t / math.sqrt(m)
    bound = max(0.0, 1.0 - 2.0 * math.exp(-(t**2) / 2.0))
    return (1.0 - half, 1.0 + half), bound
