"""End-to-end acceptance checks.

Ten numbered criteria covering exact values, estimator correctness against
independent oracles, interval coverage, consistency, and grid determinism.
Each test prints one ``[acceptance] PASS/FAIL`` line; run with ``-s`` (or
``-rA``) to see them all.
"""

import csv
import statistics
import subprocess
import sys

import numpy as np

from helpers import (
    apply_type2_censoring,
    draw_dataset,
    posterior_mean_mc_oracle,
    totals_of,
    umvue_region_oracle,
)
from stress_strength import (
    ExponentialScales,
    GammaPrior,
    RngStream,
    SimCellConfig,
    StressStrengthData,
    estimate_all,
    estimate_kernel,
    run_cell,
    run_coverage,
    true_reliability,
)


def _report(index, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance] {status} criterion {index}: {description}{suffix}"
    print(line)
    assert ok, line


def test_criterion_01_exact_reliability_values():
    cases = [
        (2.0, 3.0, 0.4),
        (2.0, 6.0, 0.25),
        (7.0, 6.0, 7.0 / 13.0),
        (7.0, 7.0, 0.5),
    ]
    worst = max(
        abs(true_reliability(ExponentialScales(a, b)) - expected)
        for a, b, expected in cases
    )
    _report(1, "true reliability reproduces the four reference values",
            worst <= 1e-12, f"max abs error {worst:.3e}")


def test_criterion_02_mle_scale_formula_oracle():
    rng = np.random.default_rng(20)
    worst = 0.0

    def sample_and_scale_mle():
        n = int(rng.integers(1, 40))
        r = int(rng.integers(1, n + 1))
        raw = rng.exponential(rng.uniform(0.1, 8.0), size=n)
        sample = apply_type2_censoring(raw, r)
        by_hand = (float(np.sum(sample.ordered_times))
                   + (n - r) * sample.ordered_times[-1]) / r
        return sample, by_hand

    for _ in range(50):
        strength, alpha_hat = sample_and_scale_mle()
        stress, beta_hat = sample_and_scale_mle()
        by_hand = alpha_hat / (alpha_hat + beta_hat)
        value = estimate_all(StressStrengthData(strength, stress)).r1_mle
        worst = max(worst, abs(value - by_hand) / by_hand)
    _report(2, "MLE matches the hand formula of the scale MLEs on 100 random samples",
            worst <= 1e-12, f"max rel error {worst:.3e}")


def test_criterion_03_umvue_against_region_quadrature():
    rng = np.random.default_rng(30)
    worst = 0.0
    for r1 in (2, 3, 5, 8):
        for r2 in (2, 3, 5, 8):
            z, v = np.empty(5), np.empty(5)
            for i in range(5):
                z[i] = rng.uniform(0.5, 12.0)
                v[i] = rng.uniform(0.5, 12.0)
            values = estimate_kernel(r1, z, r2, v)[:, 1]
            for value, zi, vi in zip(values, z, v):
                worst = max(worst, abs(value - umvue_region_oracle(r1, r2, zi, vi)))
    _report(3, "UMVUE equals 2-D region quadrature on 80 configurations",
            worst <= 1e-8, f"max abs error {worst:.3e}")


def test_criterion_04_umvue_unbiasedness():
    params = ExponentialScales(2.0, 3.0)
    target = true_reliability(params)
    replicates = 2 * 10**4
    z, v = totals_of([draw_dataset(params, 10, 10, 8, 8, RngStream(400, i))
                      for i in range(replicates)])
    values = estimate_kernel(8, z, 8, v)[:, 1]
    stderr = values.std(ddof=1) / np.sqrt(replicates)
    gap = abs(values.mean() - target)
    _report(4, "UMVUE mean sits within 3 MC stderr of the true value",
            gap <= 3.0 * stderr, f"|mean - R| = {gap:.2e}, 3*se = {3 * stderr:.2e}")


def test_criterion_05_bayes_quadrature_vs_posterior_sampling():
    priors = [
        (GammaPrior(0.5, 0.5), GammaPrior(0.5, 1.0)),
        (GammaPrior(2.0, 1.5), GammaPrior(1.0, 0.5)),
        (GammaPrior(5.0, 4.0), GammaPrior(3.0, 2.0)),
    ]
    z, v = totals_of([draw_dataset(ExponentialScales(2.0, 3.0), 10, 10, 8, 8, RngStream(500, d))
                      for d in range(3)])
    noninf = estimate_kernel(8, z, 8, v)[:, 3]
    conjugate = [estimate_kernel(8, z, 8, v, *prior)[:, 2] for prior in priors]
    ok = True
    worst_sigmas = 0.0
    for d in range(3):
        mc, se = posterior_mean_mc_oracle(8, z[d], 8, v[d], draws=10**7, seed=5000 + d)
        sigmas = abs(noninf[d] - mc) / se
        worst_sigmas = max(worst_sigmas, sigmas)
        ok = ok and sigmas <= 3.0
        for p, (prior_strength, prior_stress) in enumerate(priors):
            # The conjugate update adds the observed count to the shape and
            # the total on test to the scale.
            mc, se = posterior_mean_mc_oracle(
                prior_strength.shape_u + 8, prior_strength.scale_v + z[d],
                prior_stress.shape_u + 8, prior_stress.scale_v + v[d],
                draws=10**7, seed=5100 + 10 * d + p,
            )
            sigmas = abs(conjugate[p][d] - mc) / se
            worst_sigmas = max(worst_sigmas, sigmas)
            ok = ok and sigmas <= 3.0
    _report(5, "Bayes quadratures match 1e7-draw posterior sampling",
            ok, f"worst deviation {worst_sigmas:.2f} MC stderr")


def test_criterion_06_exact_interval_coverage():
    ok = True
    details = []
    for size, seed in ((5, 601), (10, 602), (25, 603)):
        r = int(0.8 * size)
        config = SimCellConfig(ExponentialScales(2.0, 3.0), n=size, m=size,
                               r1=r, r2=r, replicates=10**4, seed=seed)
        coverage = run_coverage(config, "exact").coverage
        details.append(f"n={size}: {coverage:.4f}")
        ok = ok and abs(coverage - 0.95) <= 0.007
    _report(6, "exact interval attains 0.95 coverage at every size",
            ok, ", ".join(details))


def test_criterion_07_asymptotic_interval_behavior():
    config = SimCellConfig(ExponentialScales(2.0, 3.0), n=62, m=62,
                           r1=50, r2=50, replicates=10**4, seed=701)
    coverage = run_coverage(config, "asymptotic").coverage
    widths = {}
    for r, seed in ((25, 702), (100, 703)):
        size = round(r / 0.8)
        cfg = SimCellConfig(ExponentialScales(2.0, 3.0), n=size, m=size,
                            r1=r, r2=r, replicates=10**3, seed=seed)
        widths[r] = run_coverage(cfg, "asymptotic").mean_width
    ratio = widths[25] / widths[100]
    ok = 0.93 <= coverage <= 0.97 and abs(ratio - 2.0) <= 0.2
    _report(7, "normal interval covers at large r and width scales as 1/sqrt(r)",
            ok, f"coverage {coverage:.4f}, width ratio {ratio:.3f}")


def test_criterion_08_mle_consistency():
    params = ExponentialScales(2.0, 3.0)
    target = true_reliability(params)
    variances = []
    biases = []
    for r, seed in ((5, 801), (20, 802), (80, 803)):
        z, v = totals_of([draw_dataset(params, r, r, r, r, RngStream(seed, i))
                          for i in range(10**4)])
        values = estimate_kernel(r, z, r, v)[:, 0]
        variances.append(values.var(ddof=1))
        biases.append(abs(values.mean() - target))
    ok = (variances[0] > variances[1] > variances[2]
          and biases[0] > biases[1] > biases[2]
          and biases[2] < 0.005)
    _report(8, "MLE variance and |bias| fall as censoring relaxes",
            ok,
            f"var {variances[0]:.4f}>{variances[1]:.4f}>{variances[2]:.4f}, "
            f"|bias| {biases[0]:.4f}>{biases[1]:.4f}>{biases[2]:.4f}")


def test_criterion_09_mle_mse_competitive_with_umvue():
    config = SimCellConfig(ExponentialScales(2.0, 3.0), n=25, m=25,
                           r1=24, r2=24, replicates=10**4, seed=901)
    result = run_cell(config)
    slack = 3.0 * (result.mc_stderr[0] + result.mc_stderr[1])
    ok = result.mse[0] <= result.mse[1] + slack
    _report(9, "near-complete samples: MLE MSE does not exceed UMVUE MSE",
            ok, f"MSE1 {result.mse[0]:.3e}, MSE2 {result.mse[1]:.3e}, slack {slack:.1e}")


TABLE_ROWS = [
    (5, 5, 3, 3), (5, 5, 4, 4),
    (10, 10, 6, 6), (10, 10, 7, 7), (10, 10, 8, 8), (10, 10, 9, 9),
    (15, 15, 12, 12), (15, 15, 13, 13), (15, 15, 14, 14),
    (20, 20, 15, 15), (20, 20, 16, 16), (20, 20, 17, 17),
    (25, 25, 23, 23), (25, 25, 24, 24),
    (50, 50, 4, 4), (50, 50, 6, 6), (50, 50, 9, 9),
]


def test_criterion_10_grid_determinism_and_regression(tmp_path):
    grid = tmp_path / "grid.csv"
    lines = ["m,n,r1,r2,alpha,beta,replicates"]
    lines += [f"{m},{n},{r1},{r2},2.0,3.0,2999" for m, n, r1, r2 in TABLE_ROWS]
    grid.write_text("\n".join(lines) + "\n")

    outputs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / f"{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "stress_strength", "simulate",
             "--grid", str(grid), "--seed", "42",
             "--out", str(out), "--workers", workers],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]

    rows = list(csv.reader(outputs[0].decode().splitlines()))[1:]
    seventeen = len(rows) == 17
    by_r = sorted(rows, key=lambda row: int(row[2]))
    terciles = [by_r[0:6], by_r[6:12], by_r[12:17]]
    medians = [statistics.median(float(row[8]) for row in group) for group in terciles]
    decreasing = medians[0] > medians[1] > medians[2]

    _report(10, "seeded grid is byte-identical across runs and workers",
            identical and seventeen and decreasing,
            f"rows {len(rows)}, MSE1 tercile medians "
            f"{medians[0]:.4f}/{medians[1]:.4f}/{medians[2]:.4f}")
