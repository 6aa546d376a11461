"""Independent checks of every operation the benchmark runs.

Each check recomputes a quantity with plain numpy, apart from the library's
own code paths, or tests a property the method must have. A check returns a
list of problems; an empty list means the output passed. Nothing here calls
into ``ris_maxmin``, so a traced run sees no extra spans from the checks.
"""

import math

import numpy as np

SINR_RTOL = 1e-9          # recomputed SINRs against the report
BOUND_RTOL = 1e-9         # SINR against its MMSE bound
PERRON_RTOL = 1e-6        # random-baseline minimum against the fixed-combiner optimum
GRID_ATOL = 1e-9          # quantized angles, in grid steps
NORM_ATOL = 1e-9          # combiner row norms
CSV_COLUMNS = ("seed", "k", "m", "n", "method", "bits", "min_sinr_linear", "min_sinr_db",
               "per_user_sinrs", "sweeps", "wall_time_seconds", "p_cap_used", "degenerate",
               "channel_hash", "diagnostics")


def power_cap(config) -> np.ndarray:
    """Per-user cap min(p_max, emf_max / sar_ref) from the scenario constants."""
    return np.minimum(config.p_max, np.asarray(config.emf_max) / np.asarray(config.sar_ref))


def effective_channels(chan, theta: np.ndarray, alpha: float) -> np.ndarray:
    """(m, k) channels: column i is h1 R^(1/2) diag(alpha e^(j theta)) h2[i]."""
    reflect = alpha * np.exp(1j * np.asarray(theta))
    return chan.h1 @ (chan.ris_corr_sqrt @ (reflect[:, None] * chan.h2.T))


def sinr_values(g: np.ndarray, p: np.ndarray, rows: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-user SINR p_k|b_k^H g_k|^2 / (sum_{i!=k} p_i|b_k^H g_i|^2 + sigma2 ||b_k||^2)."""
    k = g.shape[1]
    out = np.empty(k)
    for user in range(k):
        b = rows[user]
        received = p * np.abs(np.conj(b) @ g) ** 2
        out[user] = received[user] / (received.sum() - received[user] + sigma2 * np.vdot(b, b).real)
    return out


def mmse_bounds(g: np.ndarray, p: np.ndarray, sigma2: float) -> np.ndarray:
    """p_k g_k^H (S_k + sigma2 I)^(-1) g_k, the largest SINR any combiner gives user k."""
    m, k = g.shape
    out = np.empty(k)
    for user in range(k):
        others = [i for i in range(k) if i != user]
        s = (g[:, others] * p[others]) @ g[:, others].conj().T + sigma2 * np.eye(m)
        out[user] = p[user] * np.vdot(g[:, user], np.linalg.solve(s, g[:, user])).real
    return out


def fixed_combiner_max_min(f: np.ndarray, noise: np.ndarray, cap: np.ndarray) -> float:
    """Max-min SINR over powers in [0, cap] for fixed combiners, in closed form.

    ``f[k, i]`` is the gain |b_k^H g_i|^2 and ``noise[k]`` is sigma2 ||b_k||^2.
    tau* = 1 / max_k rho(D F~ + D n e_k^T / cap_k), where rho is the Perron
    root, F~ the off-diagonal gains and D = diag(1 / f_kk).
    """
    direct = np.diagonal(f).copy()
    coupling = (f - np.diag(direct)) / direct[:, None]
    worst = 0.0
    for user in range(direct.size):
        matrix = coupling.copy()
        matrix[:, user] += noise / direct / cap[user]
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvals(matrix)))))
    return 1.0 / worst


def trace_problems(trace, method: str, sweeps: int, max_sweeps: int, minimum: float) -> list:
    """The stage trace never falls, fits the sweep count, and ends at the minimum."""
    problems = []
    kinds = ("bf", "power") if method == "random-baseline" else ("bf", "power", "phase")
    if not 1 <= sweeps <= max_sweeps:
        problems.append(f"sweeps {sweeps} outside [1, {max_sweeps}]")
    if [kind for kind, _ in trace] != list(kinds) * sweeps:
        problems.append(f"stage trace kinds do not repeat {kinds} for {sweeps} sweeps")
    values = [value for _, value in trace]
    if any(later < earlier for earlier, later in zip(values, values[1:])):
        problems.append("stage trace decreases")
    if values and not math.isclose(values[-1], minimum, rel_tol=1e-12):
        problems.append(f"stage trace ends at {values[-1]!r}, report minimum is {minimum!r}")
    return problems


def solution_problems(config, chan, method: str, bits, max_sweeps: int, sol) -> list:
    """Every check on one alternating_optimize result; see the module docstring."""
    problems = []
    theta = np.asarray(sol.phase.theta, dtype=float)
    p = np.asarray(sol.power.p, dtype=float)
    rows = np.asarray(sol.bf.rows)
    per_user = np.asarray(sol.report.per_user, dtype=float)
    cap = power_cap(config)

    if not np.all(np.isfinite(theta)) or theta.shape != (config.n,):
        problems.append("phase angles are not n finite numbers")
        return problems
    if sol.phase.alpha != config.alpha:
        problems.append(f"reflection amplitude {sol.phase.alpha} is not the scenario's {config.alpha}")
    if method == "quant":
        steps = theta * 2 ** bits / (2 * np.pi)
        if np.max(np.abs(steps - np.round(steps))) > GRID_ATOL:
            problems.append(f"quant phases are off the {2 ** bits}-level grid")
    if np.any(p < 0) or np.any(p > cap * (1 + 1e-12)):
        problems.append(f"powers {p.tolist()} outside [0, cap {cap.tolist()}]")
    if not np.array_equal(np.asarray(sol.p_cap), cap):
        problems.append(f"reported cap {np.asarray(sol.p_cap).tolist()} differs from {cap.tolist()}")
    norms = np.linalg.norm(rows, axis=1)
    if np.max(np.abs(norms - 1.0)) > NORM_ATOL:
        problems.append("combiner rows are not unit norm")

    g = effective_channels(chan, theta, sol.phase.alpha)
    sinr = sinr_values(g, p, rows, config.sigma2)
    if not np.allclose(per_user, sinr, rtol=SINR_RTOL, atol=0.0):
        problems.append(f"reported SINRs {per_user.tolist()} differ from recomputed {sinr.tolist()}")
    if not math.isclose(sol.report.minimum, sinr.min(), rel_tol=SINR_RTOL):
        problems.append(f"reported minimum {sol.report.minimum!r} differs from recomputed {sinr.min()!r}")
    bound = mmse_bounds(g, p, config.sigma2)
    if np.any(sinr > bound * (1 + BOUND_RTOL)):
        problems.append(f"SINRs {sinr.tolist()} exceed their MMSE bounds {bound.tolist()}")
    if method == "random-baseline":
        optimum = fixed_combiner_max_min(np.abs(rows.conj() @ g) ** 2,
                                         config.sigma2 * norms ** 2, cap)
        if not math.isclose(sol.report.minimum, optimum, rel_tol=PERRON_RTOL):
            problems.append(f"random-baseline minimum {sol.report.minimum!r} is not the "
                            f"fixed-combiner optimum {optimum!r}")
    problems.extend(trace_problems(sol.report.stage_trace, method, sol.iterations, max_sweeps,
                                   sol.report.minimum))
    return problems


def csv_row_problems(row: dict, planned: tuple, sol, cap: np.ndarray) -> list:
    """One CSV row against its planned (k, m, n, method, bits) and its checked solution."""
    problems = []
    k, m, n, method, bits = planned
    if (row["k"], row["m"], row["n"], row["method"], row["bits"]) != (
            str(k), str(m), str(n), method, "" if bits is None else str(bits)):
        problems.append(f"row is out of order: expected k={k} m={m} n={n} {method} bits={bits}")
    per_user = [float(v) for v in row["per_user_sinrs"].split(";")]
    minimum = float(row["min_sinr_linear"])
    if minimum != min(per_user):
        problems.append("min_sinr_linear is not the minimum of per_user_sinrs")
    if not math.isclose(float(row["min_sinr_db"]), 10.0 * math.log10(minimum), rel_tol=1e-12):
        problems.append("min_sinr_db is not 10*log10(min_sinr_linear)")
    if [float(v) for v in row["p_cap_used"].split(";")] != cap.tolist():
        problems.append(f"p_cap_used {row['p_cap_used']} differs from {cap.tolist()}")
    if sol is not None and per_user != [float(v) for v in sol.report.per_user]:
        problems.append("per_user_sinrs differ from the solution the harness returned")
    if sol is not None and int(row["sweeps"]) != sol.iterations:
        problems.append("sweeps differ from the solution the harness returned")
    return problems


def trial_hash_problems(rows: list, trial_of_row: list) -> dict:
    """Row index -> problem, where a trial's rows do not share one channel_hash
    or two trials share one."""
    problems = {}
    hashes = {}
    for index, (row, trial) in enumerate(zip(rows, trial_of_row)):
        first = hashes.setdefault(trial, row["channel_hash"])
        if row["channel_hash"] != first:
            problems[index] = "channel_hash differs within one draw"
    owners = {}
    for trial, digest in hashes.items():
        owners.setdefault(digest, []).append(trial)
    for index, trial in enumerate(trial_of_row):
        if len(owners[hashes[trial]]) > 1:
            problems.setdefault(index, "two draws share one channel_hash")
    return problems


def reproducibility_problems(first: list, again: list) -> dict:
    """Row index -> problem, where a rerun of the same plan and seed differs
    in any column but wall_time_seconds."""
    if len(first) != len(again):
        return {i: "rerun has a different row count" for i in range(len(again))}
    problems = {}
    for index, (a, b) in enumerate(zip(first, again)):
        differs = [c for c in CSV_COLUMNS if c != "wall_time_seconds" and a[c] != b[c]]
        if differs:
            problems[index] = f"rerun differs in {differs}"
    return problems
