"""Acceptance suite.

Each test evaluates one acceptance criterion at its stated tolerance and
prints one pass/fail line (collected in the terminal summary). The heavy
block-model runs are shared across criteria through module fixtures.

Run with: pytest tests/test_acceptance.py -v
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

import dynlayout as dl
from conftest import ACCEPTANCE_LINES, adjusted_rand_index, random_connected_adjacency
from dynlayout import gll, mds
from dynlayout.distances import kk_weights, shortest_path_distances
from dynlayout.graph import augment

SEEDS = list(range(50))
SWEEP_SEEDS = [0, 1]
LOG_GRID = np.logspace(np.log10(0.1), np.log10(10.0), 10)


def check(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def below(a: float, b: float, margin: float = 0.05) -> bool:
    """a < b with the given relative margin: a <= (1 - margin) * b."""
    return a <= (1.0 - margin) * b


def protocol_network(seed: int):
    return dl.sbm_sequence(dl.SbmConfig.two_rate(
        n=30, k=4, p_in=0.6, p_out=0.2, T=20, change_step=10,
        change_fraction=0.25, seed=seed))


@pytest.fixture(scope="module")
def networks():
    return {seed: protocol_network(seed) for seed in SEEDS}


def run_family(networks, methods):
    reports = {}
    for name, kwargs in methods.items():
        reports[name] = []
        for seed in SEEDS:
            cfg = dl.RegularizationConfig(alpha=1.0, beta=1.0, seed=seed, **kwargs)
            _, rep = dl.run_sequence(networks[seed], cfg)
            reports[name].append(rep)
    return reports


@pytest.fixture(scope="module")
def mds_runs(networks):
    start = time.time()
    reports = run_family(networks, {
        "dmds_known": dict(method="dmds", groups="known"),
        "dmds_learned": dict(method="dmds", groups="learn", k=4),
        "stabilized": dict(method="mds-stabilized", groups="none"),
        "static": dict(method="mds-static", groups="none"),
    })
    reports["_elapsed"] = time.time() - start
    return reports


@pytest.fixture(scope="module")
def gll_runs(networks):
    return run_family(networks, {
        "dgll_known": dict(method="dgll", groups="known"),
        "dgll_learned": dict(method="dgll", groups="learn", k=4),
        "ccdr": dict(method="ccdr", groups="known"),
        "bfp": dict(method="bfp", groups="none"),
        "spectral": dict(method="spectral", groups="none"),
    })


def family_means(reports, kind):
    picker = {
        "static": lambda r: r.mean_static,
        "centroid": lambda r: r.mean_centroid,
        "temporal": lambda r: r.mean_temporal,
        "iterations": lambda r: r.mean_iterations,
    }[kind]
    return {name: float(np.mean([picker(r) for r in reps]))
            for name, reps in reports.items() if not name.startswith("_")}


def step_trace(reports, kind):
    values = []
    for rep in reports:
        values.append([getattr(s, kind) for s in rep.steps])
    arr = np.array([[np.nan if v is None else v for v in row] for row in values])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-nan first column
        return np.nanmean(arr, axis=0)


@pytest.fixture(scope="module")
def sweep_results(networks):
    out = {}
    for method in ("dmds", "dgll"):
        cent = np.zeros((10, 10))
        temp = np.zeros((10, 10))
        traces = []
        for i, alpha in enumerate(LOG_GRID):
            for j, beta in enumerate(LOG_GRID):
                cs, ts = [], []
                for seed in SWEEP_SEEDS:
                    cfg = dl.RegularizationConfig(method=method, alpha=float(alpha),
                                                  beta=float(beta), groups="known",
                                                  seed=seed)
                    _, rep = dl.run_sequence(networks[seed], cfg)
                    cs.append(rep.mean_centroid)
                    ts.append(rep.mean_temporal)
                    if method == "dmds":
                        traces.extend(s.stress_trace for s in rep.steps)
                cent[i, j] = np.mean(cs)
                temp[i, j] = np.mean(ts)
        out[method] = dict(centroid=cent, temporal=temp, traces=traces)
    return out


class TestCriterion1MdsOrderings:
    def test_mds_cost_orderings(self, mds_runs):
        temporal = family_means(mds_runs, "temporal")
        centroid = family_means(mds_runs, "centroid")
        stress = family_means(mds_runs, "static")
        failures = []
        for kind, means in (("temporal", temporal), ("centroid", centroid)):
            chain = ["dmds_known", "dmds_learned", "stabilized", "static"]
            for a, b in zip(chain, chain[1:]):
                if not below(means[a], means[b]):
                    failures.append(f"{kind} {a}={means[a]:.4f} !< 0.95*{b}={means[b]:.4f}")
        if not below(stress["static"], stress["stabilized"]):
            failures.append(f"stress static={stress['static']:.4f} !< "
                            f"0.95*stabilized={stress['stabilized']:.4f}")
        if not stress["stabilized"] <= stress["dmds_known"]:
            failures.append(f"stress stabilized={stress['stabilized']:.4f} > "
                            f"dmds={stress['dmds_known']:.4f}")
        elapsed = mds_runs["_elapsed"]
        if elapsed >= 600:
            failures.append(f"runtime {elapsed:.0f}s >= 600s")
        detail = (f"temporal {temporal['dmds_known']:.4f}/{temporal['dmds_learned']:.4f}/"
                  f"{temporal['stabilized']:.4f}/{temporal['static']:.4f}, "
                  f"centroid {centroid['dmds_known']:.4f}/{centroid['dmds_learned']:.4f}/"
                  f"{centroid['stabilized']:.4f}/{centroid['static']:.4f}, "
                  f"stress {stress['static']:.4f}/{stress['stabilized']:.4f}/"
                  f"{stress['dmds_known']:.4f}, runtime {elapsed:.0f}s"
                  + ("" if not failures else "; VIOLATED: " + "; ".join(failures)))
        check("1 (SBM MDS orderings, 50 seeds)", not failures, detail)


class TestCriterion2GllOrderings:
    def test_gll_cost_orderings(self, gll_runs):
        temporal = family_means(gll_runs, "temporal")
        centroid = family_means(gll_runs, "centroid")
        energy = family_means(gll_runs, "static")
        baseline_temporal = min(temporal["ccdr"], temporal["bfp"], temporal["spectral"])
        failures = []
        if not below(temporal["dgll_known"], temporal["dgll_learned"]):
            failures.append(f"temporal known={temporal['dgll_known']:.4f} !< "
                            f"0.95*learned={temporal['dgll_learned']:.4f}")
        if not below(temporal["dgll_learned"], baseline_temporal):
            failures.append(f"temporal learned={temporal['dgll_learned']:.4f} !< "
                            f"0.95*min(baselines)={baseline_temporal:.4f}")
        other_centroid = min(v for k, v in centroid.items() if k != "dgll_known")
        if not below(centroid["dgll_known"], other_centroid):
            failures.append(f"centroid known={centroid['dgll_known']:.4f} not lowest "
                            f"vs {other_centroid:.4f}")
        other_energy = min(v for k, v in energy.items() if k != "spectral")
        if not below(energy["spectral"], other_energy):
            failures.append(f"energy spectral={energy['spectral']:.4f} not lowest "
                            f"vs {other_energy:.4f}")
        detail = (f"temporal {temporal['dgll_known']:.4f}/{temporal['dgll_learned']:.4f}/"
                  f"min-baseline {baseline_temporal:.4f}, centroid known "
                  f"{centroid['dgll_known']:.4f} vs {other_centroid:.4f}, energy spectral "
                  f"{energy['spectral']:.4f} vs {other_energy:.4f}"
                  + ("" if not failures else "; VIOLATED: " + "; ".join(failures)))
        check("2 (SBM GLL orderings, 50 seeds)", not failures, detail)


class TestCriterion3IterationRatio:
    def test_iteration_count_ratio(self, mds_runs):
        iters = family_means(mds_runs, "iterations")
        ratio = iters["dmds_known"] / iters["static"]
        check("3 (iteration-count ratio)", ratio <= 0.6,
              f"mean DMDS {iters['dmds_known']:.1f} vs static {iters['static']:.1f}, "
              f"ratio {ratio:.3f} (<= 0.6 required)")


class TestCriterion4ChangePointResponse:
    def test_costs_spike_at_change(self, mds_runs, gll_runs):
        failures = []
        details = []
        for label, reports in (("DMDS", mds_runs["dmds_known"]),
                               ("DGLL", gll_runs["dgll_known"])):
            for kind in ("centroid_cost", "temporal_cost"):
                trace = step_trace(reports, kind)
                base = np.nanmean(trace[5:10])
                ratio = trace[10] / base
                details.append(f"{label} {kind.split('_')[0]} +{(ratio - 1) * 100:.0f}%")
                if not ratio >= 1.5:
                    failures.append(f"{label} {kind} t=10 {trace[10]:.3f} vs "
                                    f"mean[5..9] {base:.3f} (+{(ratio - 1) * 100:.0f}% < 50%)")
        check("4 (change-point response)", not failures,
              ", ".join(details) + ("" if not failures else
                                    "; VIOLATED: " + "; ".join(failures)))


class TestCriterion5SweepMonotonicity:
    def test_spearman_trends(self, sweep_results):
        failures = []
        details = []
        for method in ("dmds", "dgll"):
            temp = sweep_results[method]["temporal"]
            cent = sweep_results[method]["centroid"]
            rho_beta = [scipy.stats.spearmanr(LOG_GRID, temp[i, :]).statistic
                        for i in range(10)]
            rho_alpha = [scipy.stats.spearmanr(LOG_GRID, cent[:, j]).statistic
                         for j in range(10)]
            details.append(f"{method}: max rho(beta,temporal)={max(rho_beta):.2f}, "
                           f"max rho(alpha,centroid)={max(rho_alpha):.2f}")
            if not all(r <= -0.9 for r in rho_beta):
                failures.append(f"{method} Spearman(beta, temporal) max {max(rho_beta):.2f}")
            if not all(r <= -0.9 for r in rho_alpha):
                failures.append(f"{method} Spearman(alpha, centroid) max {max(rho_alpha):.2f}")
        check("5 (sweep monotonicity)", not failures, "; ".join(details + failures))


class TestCriterion6Majorization:
    def test_stress_traces_never_increase(self, mds_runs, sweep_results):
        traces = list(sweep_results["dmds"]["traces"])
        for name in ("dmds_known", "dmds_learned", "stabilized", "static"):
            for rep in mds_runs[name]:
                traces.extend(s.stress_trace for s in rep.steps)
        worst = 0.0
        count = 0
        for trace in traces:
            arr = np.asarray(trace)
            rises = (arr[1:] - arr[:-1]) / np.maximum(np.abs(arr[:-1]), 1e-300)
            worst = max(worst, float(rises.max(initial=0.0)))
            count += len(arr) - 1
        check("6 (majorization monotonicity)", worst <= 1e-12,
              f"{count} iterations audited across {len(traces)} solves, "
              f"worst relative rise {worst:.2e} (<= 1e-12 required)")


class TestCriterion7DerivativeCorrectness:
    def test_gradient_jacobian_hessian(self):
        rng = np.random.default_rng(777)
        worst_grad, worst_jac = 0.0, 0.0
        for _ in range(100):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(0, 4))
            W = random_connected_adjacency(rng, n)
            C = np.zeros((n, k))
            for i in range(n):
                if k and rng.random() < 0.8:
                    C[i, rng.integers(k)] = 1.0
            for g_idx in range(k):
                if C[:, g_idx].sum() == 0:
                    C[rng.integers(n), g_idx] = 1.0
            beta = float(rng.uniform(0.2, 3.0))
            e = (rng.random(n) < 0.7).astype(float)
            lap = gll.laplacian(augment(W, C, float(rng.uniform(0.2, 2.0))))
            M = gll.centering_matrix(np.diagonal(lap))
            target = float(np.trace(lap))
            m = n + k
            e_aug = np.zeros(m)
            e_aug[:n] = e
            X_prev = rng.standard_normal((m, 2))
            x0 = rng.standard_normal(2 * m)
            X0 = x0.reshape(2, m).T
            grad, gval, J, H = gll.dgll_derivatives(X0, lap, e_aug, beta,
                                                    X_prev, M, np.zeros(3), target)

            def f(x):
                return gll.dgll_objective(x.reshape(2, m).T, lap, e_aug,
                                          beta, X_prev)

            def g_of(x):
                return gll.dgll_derivatives(x.reshape(2, m).T, lap, e_aug,
                                            beta, X_prev, M, np.zeros(3), target)[1]

            h = 1e-6
            eye = np.eye(2 * m)
            fd_grad = np.array([(f(x0 + h * e) - f(x0 - h * e)) / (2 * h) for e in eye])
            scale_g = max(1.0, float(np.max(np.abs(grad))))
            worst_grad = max(worst_grad, float(np.max(np.abs(grad - fd_grad))) / scale_g)
            fd_J = np.column_stack([(g_of(x0 + h * e) - g_of(x0 - h * e)) / (2 * h)
                                    for e in eye])
            scale_j = max(1.0, float(np.max(np.abs(J))))
            worst_jac = max(worst_jac, float(np.max(np.abs(J - fd_J))) / scale_j)
            block = 2.0 * lap + 2.0 * beta * np.diag(e_aug)
            exact = (np.array_equal(H[:m, :m], block)
                     and np.array_equal(H[m:, m:], block)
                     and np.array_equal(H[:m, m:], np.zeros((m, m))))
            assert exact, "zero-multiplier Hessian is not the exact block form"
        ok = worst_grad <= 1e-5 and worst_jac <= 1e-5
        check("7 (derivative correctness, 100 instances)", ok,
              f"max relative error: gradient {worst_grad:.2e}, jacobian {worst_jac:.2e} "
              "(<= 1e-5); zero-multiplier Hessian exact")


class TestCriterion8DgllSolverContract:
    def test_residuals_and_penalty_oracle(self):
        rng = np.random.default_rng(4242)
        worst_g, worst_kkt, worst_gap = 0.0, 0.0, 0.0
        for trial in range(5):
            n = int(rng.integers(4, 6))
            W = random_connected_adjacency(rng, n)
            C = np.zeros((n, 1))
            C[rng.random(n) < 0.7, 0] = 1.0
            if C.sum() == 0:
                C[0, 0] = 1.0
            beta = float(rng.uniform(0.4, 2.0))
            e = (rng.random(n) < 0.8).astype(float)
            if not np.any(e):
                e[0] = 1.0
            m = n + 1
            X_prev = rng.standard_normal((m, 2))
            solution = gll.dgll_layout(W, C, 1.0, beta, e, X_prev, 2)
            worst_g = max(worst_g, solution.constraint_residual)
            worst_kkt = max(worst_kkt, solution.kkt_residual)

            lap = gll.laplacian(augment(W, C, 1.0))
            M = gll.centering_matrix(np.diagonal(lap))
            target = float(np.trace(lap))
            E_aug = np.zeros((m, m))
            E_aug[:n, :n] = np.diag(e)
            L = lap

            def f(x):
                X = x.reshape(2, m).T
                return float(np.trace(X.T @ L @ X) + beta * (
                    np.trace(X.T @ E_aug @ X) - 2 * np.trace(X.T @ E_aug @ X_prev)))

            def g_of(x):
                X = x.reshape(2, m).T
                return np.array([X[:, 0] @ M @ X[:, 0] - target,
                                 X[:, 1] @ M @ X[:, 1] - target,
                                 X[:, 1] @ M @ X[:, 0]])

            def penalty_grad(x, rho):
                X = x.reshape(2, m).T
                gf = 2 * L @ X + 2 * beta * E_aug @ X - 2 * beta * E_aug @ X_prev
                gv = g_of(x)
                gc = np.zeros_like(X)
                gc[:, 0] = 4 * gv[0] * (M @ X[:, 0]) + 2 * gv[2] * (M @ X[:, 1])
                gc[:, 1] = 4 * gv[1] * (M @ X[:, 1]) + 2 * gv[2] * (M @ X[:, 0])
                return (gf + rho * gc).T.reshape(-1)

            x = X_prev.T.reshape(-1).copy()
            for rho in [1e0, 1e2, 1e4, 1e6, 1e8, 1e10]:
                out = scipy.optimize.minimize(
                    lambda z, r=rho: f(z) + r * float(g_of(z) @ g_of(z)), x,
                    jac=lambda z, r=rho: penalty_grad(z, r),
                    method="BFGS", options={"gtol": 1e-10, "maxiter": 10000})
                x = out.x
            worst_gap = max(worst_gap, abs(solution.objective - f(x)))
        ok = worst_g <= 1e-6 and worst_kkt <= 1e-6 and worst_gap <= 1e-6
        check("8 (constrained-solver contract)", ok,
              f"max |g| {worst_g:.2e}, max KKT {worst_kkt:.2e}, max oracle gap "
              f"{worst_gap:.2e} (all <= 1e-6)")


class TestCriterion9DmdsOracle:
    def test_fixed_points_match_generic_minimizer(self):
        from test_mds import oracle_minimize
        rng = np.random.default_rng(999)
        worst_gap, worst_agree = 0.0, 0.0
        for trial in range(5):
            n = int(rng.integers(4, 6))
            W = random_connected_adjacency(rng, n)
            dm = shortest_path_distances(W)
            delta, V = dm.delta, kk_weights(dm)
            k = int(rng.integers(0, 3))
            C = np.zeros((n, k))
            for g_idx in range(k):
                C[rng.integers(n), g_idx] = 1.0
            for i in range(n):
                if k and rng.random() < 0.6:
                    C[i, rng.integers(k)] = 1.0
            e = (rng.random(n) < 0.8).astype(float)
            if not np.any(e):
                e[0] = 1.0
            X_prev = rng.uniform(-1, 1, size=(n + k, 2))
            layout, _ = mds.dmds_layout(delta, V, C, 1.0, 1.0, e, X_prev,
                                        eps=1e-15, max_iter=50000)
            ours = mds.modified_stress(np.vstack([layout.X, layout.Y]), delta, V, C,
                                       1.0, 1.0, e, X_prev)
            oracle = oracle_minimize(X_prev, delta, V, C, 1.0, 1.0, e, X_prev)
            worst_gap = max(worst_gap, abs(ours - oracle))

            a, _ = mds.stabilized_mds_online(delta, V, 1.0, e, X_prev[:n],
                                             eps=1e-14, max_iter=50000)
            b, _ = mds.dmds_layout(delta, V, np.zeros((n, 0)), 0.0, 1.0, e, X_prev[:n],
                                   eps=1e-14, max_iter=50000)
            empty = np.zeros((n, 0))
            ms_a = mds.modified_stress(a.X, delta, V, empty, 0.0, 1.0, e, X_prev[:n])
            ms_b = mds.modified_stress(b.X, delta, V, empty, 0.0, 1.0, e, X_prev[:n])
            worst_agree = max(worst_agree, abs(ms_a - ms_b))
        ok = worst_gap <= 1e-6 and worst_agree <= 1e-5
        check("9 (regularized-MDS oracle equivalence)", ok,
              f"max modified-stress gap vs BFGS oracle {worst_gap:.2e} (<= 1e-6), "
              f"max stabilized-vs-regularized gap {worst_agree:.2e} (<= 1e-5)")


class TestCriterion10SpectralIdentities:
    def test_constraints_energy_and_reduction(self):
        rng = np.random.default_rng(313)
        worst_cons, worst_energy, worst_reduction = 0.0, 0.0, 0.0
        for trial in range(10):
            n = int(rng.integers(5, 9))
            W = random_connected_adjacency(rng, n, weighted=trial % 2 == 0)
            lap = gll.laplacian(W)
            plain = gll.spectral_layout(lap, 2, normalized=False)
            X = plain.X
            worst_cons = max(worst_cons, float(np.max(np.abs(X.T @ X - n * np.eye(2)))),
                             float(np.max(np.abs(X.T @ np.ones(n)))))
            vals = np.sort(np.linalg.eigvalsh(lap))
            worst_energy = max(worst_energy,
                               abs(gll.energy(X, lap) - n * (vals[1] + vals[2])))
            norm = gll.spectral_layout(lap, 2, normalized=True)
            Xn = norm.X
            D = np.diag(np.diagonal(lap))
            worst_cons = max(
                worst_cons,
                float(np.max(np.abs(Xn.T @ D @ Xn - np.trace(D) * np.eye(2)))) / np.trace(D),
                float(np.max(np.abs(Xn.T @ D @ np.ones(n)))) / np.trace(D))
            reduction = gll.ccdr_layout(W, np.zeros((n, 0)), 0.0, 2, normalized=True)
            worst_reduction = max(worst_reduction,
                                  float(np.max(np.abs(reduction.X @ reduction.X.T
                                                      - Xn @ Xn.T))))
        ok = worst_cons <= 1e-8 and worst_energy <= 1e-6 and worst_reduction <= 1e-8
        check("10 (spectral identities)", ok,
              f"max constraint residual {worst_cons:.2e} (<= 1e-8), max energy gap "
              f"{worst_energy:.2e} (<= 1e-6), max CCDR-reduction gap {worst_reduction:.2e}")


class TestCriterion11ClusteringSanity:
    def test_affect_recovers_planted_partition(self):
        T = 8
        ari_by_step = np.zeros((20, T))
        alphas_ok = True
        for seed in range(20):
            net = dl.sbm_sequence(dl.SbmConfig.two_rate(
                n=30, k=4, p_in=0.6, p_out=0.2, T=T, seed=31000 + seed))
            labels_by_step, alphas = dl.learn_group_sequence(net, 4, seed=seed)
            alphas_ok &= all(0.0 <= a <= 1.0 for a in alphas)
            for t in range(T):
                ari_by_step[seed, t] = adjusted_rand_index(
                    labels_by_step[t], net.snapshots[t].groups.labels)
        means = ari_by_step.mean(axis=0)
        tail_ok = bool(np.all(means[3:] >= 0.9))
        check("11 (evolutionary clustering sanity)", tail_ok and alphas_ok,
              "mean ARI per step " + "/".join(f"{v:.2f}" for v in means)
              + f", alpha in [0,1]: {alphas_ok}")


class TestCriterion12Determinism:
    def _run(self, args, cwd):
        # The child runs from a temporary directory, where a relative
        # PYTHONPATH entry such as `src` no longer resolves; put the directory
        # holding the imported package first so the child runs the same code.
        package_root = str(Path(dl.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=package_root + (
            os.pathsep + inherited if inherited else ""))
        cmd = [sys.executable, "-m", "dynlayout.cli"] + args
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)

    def test_all_commands_byte_identical(self, tmp_path):
        mismatches = []
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            d.mkdir()
            for args in (
                ["simulate-sbm", "--n", "14", "--k", "2", "--p-in", "0.75",
                 "--p-out", "0.15", "--steps", "4", "--change-step", "2",
                 "--seed", "5", "--out", "sim"],
                ["layout", "--input", "sim.snapshots.tsv", "--groups", "learn",
                 "--k", "2", "--method", "dmds", "--seed", "5", "--out", "run"],
                ["layout", "--input", "sim.snapshots.tsv", "--groups",
                 "sim.groups.tsv", "--k", "2", "--method", "dgll", "--dims", "1",
                 "--seed", "5", "--out", "run1d"],
                ["cluster", "--input", "sim.snapshots.tsv", "--k", "2",
                 "--seed", "5", "--out", "clu"],
                ["sweep", "--input", "sim.snapshots.tsv", "--method", "dmds",
                 "--groups", "sim.groups.tsv", "--k", "2", "--alphas", "0.5,2",
                 "--betas", "1", "--seeds", "0", "--out", "sweep.csv"],
                ["metrics", "--input", "sim.snapshots.tsv", "--groups",
                 "sim.groups.tsv", "--k", "2", "--layout", "run.layout.json",
                 "--out", "metrics.csv"],
                ["render", "--input", "sim.snapshots.tsv", "--layout",
                 "run.layout.json", "--movement", "--out", "frames"],
                ["render", "--input", "sim.snapshots.tsv", "--layout",
                 "run1d.layout.json", "--out", "timeplot.svg"],
            ):
                result = self._run(args, d)
                assert result.returncode == 0, f"{args}: {result.stderr}"
        files_a = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if (dirs[0] / rel).read_bytes() != (dirs[1] / rel).read_bytes():
                mismatches.append(str(rel))
        check("12 (byte-identical reruns)", not mismatches,
              f"{len(files_a)} output files compared across independent reruns"
              + ("" if not mismatches else "; differ: " + ", ".join(mismatches)))
