"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 share a single paired Monte Carlo comparison (all methods on
identical channel draws) at n=24 elements, m=12 antennas, k in {2, 4, 6},
50 trials, quantizer depths {1, 2, 3}. Run with ``pytest -s`` to see the
per-criterion lines as they complete.
"""

import collections

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.stats

from ris_maxmin import (ExperimentPlan, QuantOptions, SystemConfig,
                        alternating_optimize, build_quadratic_forms,
                        effective_channel, effective_power_cap,
                        grid_phase_from_uniform, lse_gradient_phase,
                        max_min_power, optimal_beamformers, phase_grid,
                        quantized_heuristic_phase, run_experiment,
                        sample_channel, sdr_dinkelbach_phase, sinr_per_user,
                        sinr_phase_tangent)
from ris_maxmin.power import GainTable

from conftest import complex_normal, random_beamformer, random_phase, synth_channel
from oracles import finite_difference_tangent

HEADLINE = SystemConfig(m=12, n=24, k=6)


def report(number, name, detail, passed=True):
    print(f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'} -- {detail}", flush=True)


@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    plan = ExperimentPlan(
        trials=50, seed=20240817,
        methods=("lse", "sdr", "quant", "random-baseline"),
        k_grid=(2, 4, 6), m_grid=(12,), n_grid=(24,), b_grid=(1, 2, 3),
    )
    out = tmp_path_factory.mktemp("acceptance") / "comparison.csv"
    records = run_experiment(HEADLINE, plan, out_path=out, workers=1)
    values = collections.defaultdict(list)
    times = collections.defaultdict(list)
    for rec in records:
        values[(rec.k, rec.method, rec.bits)].append(rec.min_sinr_linear)
        times[(rec.k, rec.method)].append(rec.wall_time_seconds)
    return {"records": records, "values": values, "times": times, "plan": plan}


def test_criterion_1_headline_gain_vs_random_phases(comparison):
    lse = np.array(comparison["values"][(6, "lse", None)])
    rnd = np.array(comparison["values"][(6, "random-baseline", None)])
    assert len(lse) >= 50 and len(rnd) >= 50
    ratio = lse.mean() / rnd.mean()
    detail = (f"mean min-SINR lse={lse.mean():.3f}, random-baseline={rnd.mean():.3f}, "
              f"measured ratio={ratio:.2f}x over {len(lse)} paired trials (pass bar: >= 3x)")
    report(1, "headline gain", detail, passed=ratio >= 3.0)
    assert ratio >= 3.0, detail


def test_criterion_2_method_ordering(comparison):
    worst = []
    for k in (2, 4, 6):
        lse = np.array(comparison["values"][(k, "lse", None)])
        for other_name, other in (("sdr", comparison["values"][(k, "sdr", None)]),
                                  ("quant(B=3)", comparison["values"][(k, "quant", 3)])):
            other = np.array(other)
            # one-sided paired test: fail only if the other method significantly beats lse
            pvalue = scipy.stats.ttest_rel(other, lse, alternative="greater").pvalue
            worst.append((k, other_name, lse.mean(), other.mean(), pvalue))
            assert pvalue >= 0.05, (
                f"K={k}: {other_name} significantly exceeds lse "
                f"(means {other.mean():.3f} vs {lse.mean():.3f}, p={pvalue:.4f})")
    detail = "; ".join(f"K={k}: lse={lm:.2f} >= {name}={om:.2f} (p={p:.2f})"
                       for k, name, lm, om, p in worst)
    report(2, "method ordering", detail)


def test_criterion_3_runtime_ordering(comparison):
    details = []
    for k in (2, 4, 6):
        sdr = np.median(comparison["times"][(k, "sdr")])
        lse = np.median(comparison["times"][(k, "lse")])
        quant = np.median(comparison["times"][(k, "quant")])
        assert sdr > lse, f"K={k}: median sdr time {sdr:.3f}s not above lse {lse:.3f}s"
        assert sdr > quant, f"K={k}: median sdr time {sdr:.3f}s not above quant {quant:.3f}s"
        details.append(f"K={k}: sdr={sdr:.2f}s > lse={lse:.2f}s, quant={quant:.3f}s")
    report(3, "runtime ordering", "; ".join(details))


def test_criterion_4_quantization_monotonicity(comparison):
    details = []
    for k in (2, 4, 6):
        means = [np.mean(comparison["values"][(k, "quant", b)]) for b in (1, 2, 3)]
        assert len(comparison["values"][(k, "quant", 1)]) >= 20
        assert means[0] <= means[1] <= means[2], f"K={k}: quant means not monotone {means}"
        details.append(f"K={k}: B=1..3 -> {means[0]:.2f} <= {means[1]:.2f} <= {means[2]:.2f}")
    report(4, "quantization monotonicity", "; ".join(details))


def test_criterion_5_beamformer_optimality():
    rng = np.random.default_rng(501)
    worst_rel = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        n = int(rng.integers(2, 6))
        chan = synth_channel(rng, m, n, k)
        phase = random_phase(rng, n)
        p = rng.uniform(0.1, 1.0, k)
        sigma2 = float(rng.uniform(0.3, 2.0))
        bf = optimal_beamformers(chan, phase, p, sigma2)
        achieved = sinr_per_user(chan, phase, p, bf, sigma2).per_user
        g = effective_channel(chan, phase)
        probes = complex_normal(rng, (1000, m))
        probe_gain = np.abs(probes.conj() @ g) ** 2
        probe_noise = sigma2 * np.linalg.norm(probes, axis=1) ** 2
        for j in range(k):
            sigma_j = sigma2 * np.eye(m, dtype=complex)
            for i in range(k):
                if i != j:
                    sigma_j += p[i] * np.outer(g[:, i], g[:, i].conj())
            oracle = p[j] * sla.eigh(np.outer(g[:, j], g[:, j].conj()), sigma_j,
                                     eigvals_only=True)[-1]
            worst_rel = max(worst_rel, abs(achieved[j] / oracle - 1.0))
            assert achieved[j] == pytest.approx(oracle, rel=1e-9)
            probe_sinr = p[j] * probe_gain[:, j] / (
                probe_gain @ p - p[j] * probe_gain[:, j] + probe_noise)
            assert np.all(probe_sinr <= achieved[j] + 1e-9)
    report(5, "beamformer optimality", f"100 instances, worst oracle deviation {worst_rel:.2e}, "
                                       f"1000 probes never exceeded the closed form")


def test_criterion_6_power_control_grid_oracle():
    rng = np.random.default_rng(601)
    worst = 0.0
    for _ in range(50):
        f = rng.uniform(0.0, 1.0, (2, 2))
        f[np.arange(2), np.arange(2)] = rng.uniform(0.5, 2.0, 2)
        n = rng.uniform(0.1, 1.0, 2)
        caps = rng.uniform(0.2, 1.0, 2)
        result = max_min_power(GainTable(f=f, n=n), caps)
        p1 = np.linspace(0.0, caps[0], 2000)
        p2 = np.linspace(0.0, caps[1], 2000)
        s1 = f[0, 0] * p1[:, None] / (f[0, 1] * p2[None, :] + n[0])
        s2 = f[1, 1] * p2[None, :] / (f[1, 0] * p1[:, None] + n[1])
        oracle = np.minimum(s1, s2).max()
        rel = abs(result.tau / oracle - 1.0)
        worst = max(worst, rel)
        assert rel < 1e-3
    report(6, "power-control oracle", f"50 instances, worst relative gap to the "
                                      f"2000x2000 grid {worst:.2e}")


def test_criterion_7_gradient_matches_finite_differences():
    rng = np.random.default_rng(701)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        chan = synth_channel(rng, m, n, k, identity_corr=False)
        phase = random_phase(rng, n, alpha=float(rng.uniform(0.5, 1.0)))
        p = rng.uniform(0.2, 1.0, k)
        tangent, _ = sinr_phase_tangent(chan, p, phase, 1.0)
        fd = finite_difference_tangent(chan, p, phase, 1.0, step=1e-6)
        # relative per coordinate, with a floor tied to the row scale where the
        # central difference itself is at its noise level
        scale = np.maximum(np.abs(fd).max(axis=1, keepdims=True), 1.0)
        rel = np.abs(tangent - fd) / np.maximum(np.abs(fd), 1e-4 * scale)
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-5
    report(7, "gradient correctness", f"50 instances, worst per-coordinate deviation {worst:.2e}")


def grid_min_sinr_fixed_bf(forms, alpha, points=720):
    g = np.linspace(0, 2 * np.pi, points, endpoint=False)
    t1, t2 = np.meshgrid(g, g, indexing="ij")
    u = alpha * np.exp(1j * np.stack([t1.ravel(), t2.ravel()]))
    return forms.sinr_batch(u).min(axis=0).max()


def grid_min_sinr_post_bf(chan, p, sigma2, alpha, points=720):
    g = np.linspace(0, 2 * np.pi, points, endpoint=False)
    t1, t2 = np.meshgrid(g, g, indexing="ij")
    u = alpha * np.exp(1j * np.stack([t1.ravel(), t2.ravel()]))
    a = chan.h1 @ chan.ris_corr_sqrt
    g1 = (a * chan.h2[0][None, :]) @ u
    g2 = (a * chan.h2[1][None, :]) @ u
    n1 = (np.abs(g1) ** 2).sum(axis=0)
    n2 = (np.abs(g2) ** 2).sum(axis=0)
    x12 = (g2.conj() * g1).sum(axis=0)
    # rank-one inverse identity for the two-user interference matrix
    rho1 = p[0] * (n1 - p[1] * np.abs(x12) ** 2 / (sigma2 + p[1] * n2)) / sigma2
    rho2 = p[1] * (n2 - p[0] * np.abs(x12) ** 2 / (sigma2 + p[0] * n1)) / sigma2
    return np.minimum(rho1, rho2).max()


def test_criterion_8_small_instance_phase_optimality():
    worst_sdr, worst_lse = 1.0, 1.0
    for trial in range(20):
        rng = np.random.default_rng(4000 + trial)
        chan = synth_channel(rng, 3, 2, 2)
        p = rng.uniform(0.3, 1.0, 2)
        init = random_phase(rng, 2)
        bf = optimal_beamformers(chan, init, p, 1.0)
        forms = build_quadratic_forms(chan, bf, p, 1.0)

        sdr_out = sdr_dinkelbach_phase(forms, 1.0, init, rng)
        worst_sdr = min(worst_sdr, sdr_out.min_sinr / grid_min_sinr_fixed_bf(forms, 1.0))

        lse_out = lse_gradient_phase(chan, p, init, 1.0)
        worst_lse = min(worst_lse, lse_out.min_sinr / grid_min_sinr_post_bf(chan, p, 1.0, 1.0))
    assert worst_sdr >= 0.95
    assert worst_lse >= 0.95

    reached = 0
    for trial in range(100):
        rng = np.random.default_rng(9000 + trial)
        chan = synth_channel(rng, 3, 2, 2)
        p = rng.uniform(0.3, 1.0, 2)
        bf = random_beamformer(rng, 2, 3)
        forms = build_quadratic_forms(chan, bf, p, 1.0)
        objective = lambda phi: forms.min_sinr(phi)  # noqa: E731
        grid = phase_grid(1)
        best = max(objective(np.exp(1j * np.array([grid[i], grid[j]])))
                   for i in range(2) for j in range(2))
        init = grid_phase_from_uniform(rng.random(2), 1, 1.0)
        out = quantized_heuristic_phase(objective, init, rng, QuantOptions(bits=1))
        reached += out.min_sinr >= best * (1 - 1e-12)
    assert reached >= 90
    report(8, "small-instance phase optimality",
           f"20 instances: sdr >= {worst_sdr:.3f}x and lse >= {worst_lse:.3f}x of the "
           f"720-point grid optimum; quant B=1 reached the exhaustive optimum {reached}/100")


def test_criterion_9_monotone_alternating_trace():
    cfg = SystemConfig(m=4, n=6, k=3)
    runs = 0
    for method in ("sdr", "lse", "quant", "random-baseline"):
        for seed in range(25):
            chan = sample_channel(cfg, np.random.default_rng((9, seed)))
            sol = alternating_optimize(cfg, chan, method, np.random.default_rng((10, seed)))
            minima = [v for _, v in sol.report.stage_trace]
            assert all(b >= a for a, b in zip(minima, minima[1:])), \
                f"non-monotone trace for {method} seed {seed}"
            runs += 1
    report(9, "monotone alternating trace", f"{runs} runs across all methods, zero violations")


def test_criterion_10_exposure_cap_folding():
    cap = effective_power_cap(0.5, 63e-4, 0.0029)
    assert cap[0] == pytest.approx(0.0029 / 0.0063, rel=1e-12)
    assert cap[0] == pytest.approx(0.4603, abs=5e-5)
    cfg = SystemConfig(m=6, n=8, k=3)
    worst = 0.0
    for method in ("lse", "quant"):
        chan = sample_channel(cfg, np.random.default_rng(1001))
        sol = alternating_optimize(cfg, chan, method, np.random.default_rng(1002))
        assert np.all(sol.power.p <= cap[0] + 1e-12)
        worst = max(worst, float(sol.power.p.max()))
    report(10, "exposure cap folding",
           f"cap=min(0.5, 0.0029/0.0063)={cap[0]:.6f} W; largest assigned power {worst:.6f} W")


def test_criterion_11_cross_module_identity():
    rng = np.random.default_rng(1101)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        chan = synth_channel(rng, m, n, k, identity_corr=bool(rng.integers(2)))
        phase = random_phase(rng, n, alpha=float(rng.uniform(0.5, 1.0)))
        bf = random_beamformer(rng, k, m)
        forms = build_quadratic_forms(chan, bf, np.ones(k), 1.0)
        g = effective_channel(chan, phase)
        for j in range(k):
            err = abs(np.vdot(forms.vectors[j], phase.phi_vec) - np.vdot(bf.rows[j], g[:, j]))
            worst = max(worst, err)
            assert err < 1e-10
    report(11, "cross-module identity", f"1000 instances, worst |b^H u - beta^H g| = {worst:.2e}")
