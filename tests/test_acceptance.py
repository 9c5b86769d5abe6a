"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion checks
its stated tolerance and its runtime budget.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse

import subsketch as ss
from subsketch._field import _K_NEWTON, _L, _newton_block, poly_eval
from subsketch.experiments import builder as trial_builder
from subsketch.experiments import eps_sweep

_t0 = None


def _start():
    global _t0
    _t0 = time.perf_counter()


def _verdict(num, ok, budget_s, detail=""):
    elapsed = time.perf_counter() - _t0
    tag = "PASS" if ok and elapsed <= budget_s else "FAIL"
    print(f"[criterion {num:2d}] {tag} ({elapsed:.1f}s/{budget_s:.0f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed <= budget_s, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_01_osnap_structural_exactness():
    _start()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(2, 513))
        divisors = [s for s in range(1, m + 1) if m % s == 0]
        s = int(rng.choice(divisors))
        n = int(rng.integers(1, 257))
        spec = ss.SketchSpec.from_sparsity("osnap", m=m, n=n, s=s, seed=trial,
                                           degree_k=8)
        sk = ss.build_osnap(spec)
        block = m // s
        assert np.all(np.diff(sk.indptr) == s), "column sparsity != s"
        gamma = np.arange(sk.nnz) % s
        assert np.all(sk.rows // block == gamma), "entry outside its block"
        assert np.all(np.abs(sk.values) == 1.0)
        assert sk.scale == 1.0 / math.sqrt(s)
        energy = sk.column_energy()
        assert np.all(energy == float(s)), "column energy != p*m"
        worst = max(worst, float(np.max(np.abs(energy - s))))
    _verdict(1, True, 10.0, f"100 specs, worst energy error {worst:.1e}")


def test_criterion_02_less_ic_structural_exactness():
    _start()
    rng = np.random.default_rng(202)
    worst_energy = 0.0
    for trial in range(60):
        n = int(rng.integers(4, 200))
        m = int(rng.integers(8, 512))
        d = int(rng.integers(1, 17))
        z = np.clip(rng.dirichlet(np.ones(n)) * d, 0.0, 1.0)
        scores = ss.LeverageScores(z=z, beta1=1.0, beta2=1.0)
        p = float(rng.uniform(2.0 / m, 0.9))
        spec = ss.SketchSpec(kind="less-ic", m=m, p=p, scores=scores, seed=trial)
        covered = set()
        for lo, hi, alpha in ss.subcolumn_layout(spec, int(rng.integers(n))):
            covered.update(range(lo, hi + 1))
            assert alpha == pytest.approx(math.sqrt(p * (hi - lo + 1)))
        assert covered == set(range(1, m + 1)), "blocks do not partition rows"
        sk = ss.build_less_ic(spec)
        rel = np.max(np.abs(sk.column_energy() - p * m)) / (p * m)
        worst_energy = max(worst_energy, float(rel))
        assert rel <= 1e-12
        assert sk.nnz <= n + 4 * 1 * 1 * (p * m) * d, "nnz bound violated"
    # the reference truncated layout: m = 70 with height-15 blocks
    p = 0.2
    spec = ss.SketchSpec(kind="less-ic", m=70, p=p,
                         scores=ss.LeverageScores(z=np.full(3, 1 / (15.5 * p))),
                         seed=0)
    layout = ss.subcolumn_layout(spec, 0)
    assert [(lo, hi) for lo, hi, _ in layout] == [
        (1, 15), (16, 30), (31, 45), (46, 60), (61, 70)
    ]
    assert layout[-1][2] == pytest.approx(math.sqrt(10 * p))
    _verdict(2, True, 10.0,
             f"60 specs + reference layout, worst energy rel err {worst_energy:.1e}")


def test_criterion_03_diagonal_term():
    _start()
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(20):
        U = ss.haar_basis(256, 8, rng)
        spec = ss.SketchSpec.from_sparsity("osnap", m=64, n=256, s=8, seed=trial)
        _, _, norms = ss.diagonal_offdiagonal_split(ss.build_osnap(spec), U)
        worst = max(worst, norms["diag"])
        z = np.clip(rng.uniform(0, 1, 256), 1e-3, 1.0)
        lspec = ss.SketchSpec(kind="less-ic", m=64, p=0.25, scores=ss.LeverageScores(z=z),
                              seed=trial)
        _, _, norms = ss.diagonal_offdiagonal_split(ss.build_less_ic(lspec), U)
        worst = max(worst, norms["diag"])
    assert worst <= 1e-10, f"fixed-sparsity diagonal term {worst:.2e}"

    n, d, p, m, trials = 4096, 16, 0.01, 1600, 2000
    U = np.eye(n)[:, :d]
    pm = p * m
    samples = np.empty(trials)
    for t in range(trials):
        spec = ss.SketchSpec(kind="ose-ie", m=m, n=n, p=p, seed=7000 + t)
        diag, _, _ = ss.diagonal_offdiagonal_split(ss.build_ose_ie(spec), U)
        D = diag / pm
        samples[t] = float(np.trace(D @ D) / d)
    mean = samples.mean()
    se = samples.std(ddof=1) / math.sqrt(trials)
    target = (1 - p) / pm
    ok = abs(mean - target) <= 3 * se
    _verdict(3, ok, 120.0,
             f"diag {worst:.1e}; MC {mean:.5f} vs {target:.5f} (3SE={3 * se:.5f})")


def test_criterion_04_oracle_equivalence():
    _start()
    rng = np.random.default_rng(404)
    worst = 0.0
    kinds = ["osnap", "ose-ie", "less-ic"]
    for trial in range(50):
        kind = kinds[trial % 3]
        m = int(rng.integers(4, 257))
        n = int(rng.integers(m, 1025))
        d = int(rng.integers(1, 33))
        if kind == "osnap":
            divisors = [s for s in range(1, m + 1) if m % s == 0]
            spec = ss.SketchSpec.from_sparsity("osnap", m=m, n=n,
                                               s=int(rng.choice(divisors)),
                                               seed=trial)
            sk = ss.build_osnap(spec)
        elif kind == "ose-ie":
            spec = ss.SketchSpec(kind="ose-ie", m=m, n=n,
                                 p=float(rng.uniform(0.05, 0.9)), seed=trial)
            sk = ss.build_ose_ie(spec)
        else:
            z = np.clip(rng.uniform(0, 1, n), 0.0, 1.0)
            spec = ss.SketchSpec(kind="less-ic", m=m, p=float(rng.uniform(2.0 / m, 0.5)),
                                 scores=ss.LeverageScores(z=z), seed=trial)
            sk = ss.build_less_ic(spec)
        A = rng.standard_normal((n, d))
        got = ss.apply(sk, A)
        want = sk.materialize() @ A
        err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
        worst = max(worst, float(err))
    ok = worst <= 1e-12
    _verdict(4, ok, 30.0, f"50 pairs, worst relative Frobenius error {worst:.1e}")


def test_criterion_05_second_moment_identity():
    _start()
    m, d, p, n, trials = 64, 8, 0.25, 128, 2000
    s = round(p * m)
    expected = 2 * p**2 * m * (d + 1)
    rng = np.random.default_rng(505)
    U = ss.haar_basis(n, d, rng)
    builders = {
        "osnap": trial_builder(
            ss.SketchSpec.from_sparsity("osnap", m=m, n=n, s=s, degree_k=8)
        ),
        "ose-ie": trial_builder(
            ss.SketchSpec(kind="ose-ie", m=m, n=n, p=p)
        ),
        "less-ic": trial_builder(ss.SketchSpec(kind="less-ic", m=m, n=n, p=s / m)),
        "gaussian": trial_builder(
            ss.SketchSpec(kind="gaussian-dense", m=m, n=n, p=p)
        ),
    }
    details = []
    ok = True
    for i, (name, builder) in enumerate(builders.items()):
        if name == "less-ic":
            # uniform scores keep every column at the same block height
            uniform = ss.LeverageScores(z=np.full(n, 0.5))
            spec = ss.SketchSpec(kind="less-ic", m=m, p=p, scores=uniform, degree_k=8, seed=0)
            builder = lambda seed, U, _spec=spec: ss.build_less_ic(  # noqa: E731
                ss.SketchSpec(kind="less-ic", m=m, p=p, scores=uniform, degree_k=8, seed=seed)
            )
        probe = ss.decoupled_gamma_moment(builder, U, q=1, trials=trials,
                                          seed=1000 + i)
        gap = abs(probe.estimate - expected)
        ok &= gap <= 3 * probe.std_error
        details.append(f"{name}:{probe.estimate:.2f}+-{probe.std_error:.2f}")
    _verdict(5, ok, 120.0, f"target {expected}: " + " ".join(details))


def test_criterion_06_entry_moments():
    _start()
    m, n, p, builds = 16, 8, 0.25, 900
    s = round(p * m)
    details = []
    ok = True

    def sample_values(kind):
        vals = np.empty((builds, m, n))
        uniform = ss.LeverageScores(z=np.full(n, 0.5))
        for t in range(builds):
            if kind == "osnap":
                spec = ss.SketchSpec.from_sparsity("osnap", m=m, n=n, s=s, seed=t)
                sk = ss.build_osnap(spec)
            elif kind == "ose-ie":
                spec = ss.SketchSpec(kind="ose-ie", m=m, n=n, p=p, seed=t)
                sk = ss.build_ose_ie(spec)
            elif kind == "less-ic":
                spec = ss.SketchSpec(kind="less-ic", m=m, p=p, scores=uniform, seed=t)
                sk = ss.build_less_ic(spec)
            else:
                sk = ss.build_less_ie(ss.SketchSpec(kind="less-ie", m=m, p=p, scores=uniform,
                                                    seed=t))
            vals[t] = sk.materialize() / sk.scale
        return vals

    for kind in ("osnap", "ose-ie", "less-ic", "less-ie"):
        V = sample_values(kind)
        N = V.size
        assert N >= 100_000
        mean = V.mean()
        se_mean = V.std(ddof=1) / math.sqrt(N)
        var = (V**2).mean()
        se_var = (V**2).std(ddof=1) / math.sqrt(N)
        prods = np.concatenate([
            (V[:, :-1, :] * V[:, 1:, :]).ravel(),  # same column, adjacent rows
            (V[:, :, :-1] * V[:, :, 1:]).ravel(),  # same row, adjacent columns
        ])
        assert prods.size >= 100_000
        cov = prods.mean()
        se_cov = prods.std(ddof=1) / math.sqrt(prods.size)
        kind_ok = (
            abs(mean) <= 4 * se_mean
            and abs(var - p) <= 4 * se_var
            and abs(cov) <= 4 * max(se_cov, 1e-12)
        )
        ok &= kind_ok
        details.append(f"{kind}: mean {mean:+.4f} var {var:.4f} cov {cov:+.5f}")
    _verdict(6, ok, 60.0, "; ".join(details))


def test_criterion_07_gaussian_spectrum():
    _start()
    m, d, t, trials = 400, 20, 3.0, 500
    (lo, hi), bound = ss.gaussian_reference(m, d, t)
    U = np.eye(d)
    inside = 0
    for i in range(trials):
        spec = ss.SketchSpec(kind="gaussian-dense", m=m, n=d, p=1.0,
                             seed=9000 + i)
        sk = ss.build_dense_baseline(spec)
        svals = np.linalg.svd(sk.scale * sk.matrix, compute_uv=False)
        inside += lo <= svals[-1] and svals[0] <= hi
    frac = inside / trials
    ok = frac >= bound
    _verdict(7, ok, 60.0, f"inside-band fraction {frac:.4f} >= bound {bound:.4f}")


def test_criterion_08_embedding_guarantee_calibrated():
    _start()
    d, n, eps, delta, trials = 16, 4096, 0.5, 0.05, 200
    spec = ss.default_parameters(d, n, eps, delta, "osnap", seed=0)
    builder = trial_builder(spec)
    results = {}
    for name in ("haar", "coordinate"):
        sampler = lambda rng, _f=ss.haar_basis if name == "haar" else ss.coordinate_basis: _f(n, d, rng)  # noqa: E731
        summary = ss.embedding_trial(builder, sampler, trials, eps,
                                     seed=hash(name) % 2**32)
        results[name] = summary
    ok = all(r.failure_fraction <= 0.05 for r in results.values())

    spec2 = ss.SketchSpec(kind="osnap", m=2 * spec.m, n=n, p=spec.s / (2 * spec.m),
                          degree_k=spec.degree_k, seed=0)
    sampler = lambda rng: ss.haar_basis(n, d, rng)  # noqa: E731
    base_q95 = results["haar"].quantiles["0.95"]
    doubled = ss.embedding_trial(trial_builder(spec2), sampler, trials, eps,
                                 seed=12345)
    ratio = base_q95 / doubled.quantiles["0.95"]
    ok &= ratio >= 1.2
    _verdict(
        8, ok, 600.0,
        f"m={spec.m} s={spec.s}; fail[haar]={results['haar'].failure_fraction:.3f} "
        f"fail[coord]={results['coordinate'].failure_fraction:.3f}; "
        f"q95 ratio on doubling m = {ratio:.2f}",
    )


def test_criterion_09_sparsity_eps_trend():
    _start()
    d, delta = 16, 0.05
    eps_grid = (0.5, 0.25, 0.125)
    # continuous calibrated sparsity targets and the declared two-term model
    targets = np.array([ss.osnap_sparsity_target(d, e, delta) for e in eps_grid])
    Lcube = np.array([math.log(d / (e * delta)) ** 3 for e in eps_grid])
    inv_eps = np.array([1.0 / e for e in eps_grid])
    design = np.column_stack([inv_eps, Lcube])
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    residual = targets - coef[1] * Lcube
    slope = np.polyfit(np.log(inv_eps), np.log(residual), 1)[0]
    exponent_ok = 0.8 <= slope <= 1.3

    # the i.i.d. model's extra 1/eps^2 term is present by construction
    extra = np.array(
        [ss.oseie_sparsity_target(d, e, delta) - ss.osnap_sparsity_target(d, e, delta)
         for e in eps_grid]
    )
    c_e = ss.CONSTANTS.c_e_oseie
    extra_ok = np.allclose(
        extra, [c_e * math.log(d / (e * delta)) / e**2 for e in eps_grid]
    )

    n = 8192
    osnap_rows = eps_sweep("osnap", d=d, delta=delta, n=n, trials=50, seed=909)
    oseie_rows = eps_sweep("ose-ie", d=d, delta=delta, n=n, trials=50, seed=909)
    for rows in (osnap_rows, oseie_rows):
        assert tuple(r["eps"] for r in rows) == eps_grid
    sweeps_ok = all(r["failure_fraction"] <= delta for r in osnap_rows + oseie_rows)

    # dropping the extra term must hurt the i.i.d. model at the smallest eps
    eps_small = eps_grid[-1]
    m_small = oseie_rows[-1]["m"]
    s_without = max(1, math.ceil(ss.osnap_sparsity_target(d, eps_small, delta)))
    spec_without = ss.SketchSpec(kind="ose-ie", m=m_small, n=n, p=s_without / m_small)
    sampler = lambda rng: ss.coordinate_basis(n, d, rng)  # noqa: E731
    without = ss.embedding_trial(trial_builder(spec_without), sampler, 50,
                                 eps_small, seed=911)
    with_q95 = oseie_rows[-1]["q95_distortion"]
    term_matters = without.quantiles["0.95"] > with_q95

    ok = exponent_ok and extra_ok and sweeps_ok and term_matters
    _verdict(
        9, ok, 1200.0,
        f"1/eps exponent {slope:.2f} in [0.8,1.3]; sweep max failure "
        f"{max(r['failure_fraction'] for r in osnap_rows + oseie_rows):.3f}; "
        f"ose-ie q95 without extra term {without.quantiles['0.95']:.3f} "
        f"> with {with_q95:.3f}",
    )


def test_criterion_10_kwise_exact_independence(monkeypatch, vandermonde_exact):
    # the production evaluator maps the coefficients c to V*c at any K distinct
    # points, V invertible mod M61: uniform c gives exactly uniform values
    _start()
    newton = []
    monkeypatch.setattr("subsketch._field._newton_block",
                        lambda *args: newton.append(1) or _newton_block(*args))
    rng = np.random.default_rng(110)
    top = (1 << 32) - 1
    n = 2 * _L + 100
    progression = (top - (1 << 20) * np.arange(n, dtype=object)).astype(np.uint64)
    exact, routes = True, True
    for k in (2, 3, 16, 56, 64):
        scattered = np.unique(rng.integers(0, top, 4 * k, dtype=np.uint64))[:k - 1]
        scattered = rng.permutation(np.append(scattered, np.uint64(top)))
        exact &= vandermonde_exact(scattered, range(k), seed=k)
        routes &= not newton  # scattered points take Horner
        at = sorted(rng.choice(n, k, replace=False).tolist())
        exact &= vandermonde_exact(progression, at, seed=k)
        routes &= bool(newton) == (k >= _K_NEWTON)  # a progression takes Newton
        newton.clear()

    # negative control: a family that drops its top coefficient must fail
    monkeypatch.setattr(ss.kwise, "poly_eval",
                        lambda coeffs, points: poly_eval(np.asarray(coeffs)[:-1], points))
    control = not vandermonde_exact(progression, range(0, n, n // 16))
    _verdict(10, exact and routes and control, 5.0,
             "V*c exact and det V != 0 mod M61 for K in {2, 3, 16, 56, 64} on "
             "Horner and Newton routes; a dropped top coefficient is caught")


def test_criterion_11_leverage_scores():
    _start()
    rng = np.random.default_rng(111)
    sums_ok = True
    invariance_ok = True
    for trial in range(10):
        A = rng.standard_normal((300, 12))
        scores = ss.exact_leverage(A)
        sums_ok &= abs(scores.z.sum() - 12) <= 1e-10
        C = rng.standard_normal((12, 12)) + 3 * np.eye(12)
        z2 = ss.exact_leverage(A @ C).z
        invariance_ok &= bool(
            np.allclose(z2, scores.z, rtol=1e-8, atol=1e-10)
        )
    validated = 0
    for trial in range(50):
        A = rng.standard_normal((2000, 20))
        scores = ss.approx_leverage(A, gamma=0.5, seed=trial)
        validated += ss.validate_scores(A, scores).passed
    ok = sums_ok and invariance_ok and validated == 50
    _verdict(11, ok, 120.0,
             f"sum/invariance ok; approximate scores validated {validated}/50")


def test_criterion_12_pipeline():
    _start()
    rng = np.random.default_rng(112)
    n, d, eps, runs = 100_000, 32, 0.5, 50
    A = scipy.sparse.random(n, d, density=0.003, random_state=3, format="csr")
    lift = scipy.sparse.csr_matrix(
        (rng.uniform(1.0, 2.0, d), (np.arange(d), np.arange(d))), shape=(n, d)
    )
    A = (A + lift).tocsr()
    R = np.linalg.qr(A.toarray(), mode="r")

    good = 0
    bound_ok = True
    for run in range(runs):
        config = ss.PipelineConfig(eps=eps, delta=0.05, gamma=0.25,
                                   seed=5000 + run, kind="less-ic")
        A_tilde, report = ss.fast_subspace_embed(A, config)
        bound_ok &= report.nnz_sketch <= report.nnz_bound
        Y = scipy.linalg.solve_triangular(R, A_tilde.T, lower=False, trans="T").T
        svals = np.linalg.svd(Y, compute_uv=False)
        good += (1 - eps) <= svals[-1] and svals[0] <= (1 + eps)
    frac = good / runs
    ok = frac >= 0.95 and bound_ok
    _verdict(12, ok, 600.0,
             f"distortion within eps in {frac:.0%} of runs; nnz bound held: {bound_ok}")
