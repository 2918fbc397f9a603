"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``[criterion N] PASS/FAIL`` line with the measured quantities next to their
bounds, so a suite run doubles as a scoreboard. Benchmarks run at desk scale:
bands are wide enough for the default dataset sizes, and the full-size runs
stay behind the scale knob.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import ks_2samp

from surrogate_mcmc import cli, kernelgp
from surrogate_mcmc.acceptance import (
    MalaProposalParams,
    StateSnapshot,
    gaussian_quadratic_expectation,
    lognormal_mean_log,
    mala_marginal_log_factor,
    stage1_log_alpha_mh,
    stage2_log_alpha_mh,
)
from surrogate_mcmc.bench import RunConfig, _init_rng, execute_replicate
from surrogate_mcmc.diagnostics import alpha_gap_series
from surrogate_mcmc.kernelgp import (
    Evaluation,
    EvaluationLedger,
    KernelHyper,
    SurrogatePrediction,
)
from surrogate_mcmc.samplers import SamplerConfig, run_gp_mh, run_mh
from surrogate_mcmc.targets import make_target, sir_solve, standard_normal_target


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
        assert ok, f"criterion {num}: {detail}"

    return _report


def _replicate_means(target: str, algo: str, replicates: int, **cfg_kw) -> dict:
    """Per-metric means over seeded replicates of one algorithm."""
    cfg = RunConfig(target=target, algos=(algo,), seed=0, **cfg_kw)
    rows = [execute_replicate(cfg, algo, r)["metrics"] for r in range(replicates)]
    return {k: float(np.mean([row[k] for row in rows]))
            for k in ("acceptance_rate", "eval_pct", "sd")}


def central_fd(fn, theta, rel_h=1e-6):
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for j in range(theta.shape[0]):
        h = rel_h * max(1.0, abs(theta[j]))
        tp = theta.copy()
        tm = theta.copy()
        tp[j] += h
        tm[j] -= h
        g[j] = (fn(tp) - fn(tm)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# benchmark bands

def test_c01_t1_two_stage_matches_random_walk(report):
    started = time.perf_counter()
    mh = _replicate_means("t1", "mh", 10)
    gp = _replicate_means("t1", "gp-mh", 10)
    wall = time.perf_counter() - started
    d_ar = abs(gp["acceptance_rate"] - mh["acceptance_rate"])
    sd_ratio = gp["sd"] / mh["sd"]
    ok = (d_ar <= 0.08 and gp["eval_pct"] <= 60.0
          and sd_ratio <= 2.0 and wall < 120.0)
    report(1, ok,
           f"t1 x10: dAR={d_ar:.4f}<=0.08 eval%={gp['eval_pct']:.1f}<=60 "
           f"sd_ratio={sd_ratio:.2f}<=2 wall={wall:.1f}s<120")


def test_c02_t4_two_stage_matches_random_walk(report):
    started = time.perf_counter()
    mh = _replicate_means("t4", "mh", 5)
    gp = _replicate_means("t4", "gp-mh", 5)
    wall = time.perf_counter() - started
    d_ar = abs(gp["acceptance_rate"] - mh["acceptance_rate"])
    ok = d_ar <= 0.05 and gp["eval_pct"] <= 30.0 and wall < 600.0
    report(2, ok,
           f"t4 x5: dAR={d_ar:.4f}<=0.05 eval%={gp['eval_pct']:.1f}<=30 "
           f"wall={wall:.1f}s<600")


def test_c03_langevin_screening_bands(report):
    knobs = dict(n_iters=2000, n_burnin=400, ledger_cap=300,
                 hyper_update_every=25, hyper_opt_budget=150)
    mala = _replicate_means("t5", "mala", 5, **knobs)
    gp = _replicate_means("t5", "gp-mala", 5, **knobs)
    d_ar = abs(gp["acceptance_rate"] - mala["acceptance_rate"])
    # second screened-Langevin target: full evaluations must stay partial
    cfg2 = RunConfig(target="t2", algos=("gp-mala",), seed=0,
                     n_iters=2000, n_burnin=400, ledger_cap=300)
    t2_eval = execute_replicate(cfg2, "gp-mala", 0)["metrics"]["eval_pct"]
    ok = d_ar <= 0.08 and gp["eval_pct"] <= 75.0 and t2_eval < 100.0
    report(3, ok,
           f"t5 x5: dAR={d_ar:.4f}<=0.08 eval%={gp['eval_pct']:.1f}<=75 "
           f"(mala AR {mala['acceptance_rate']:.3f}); t2 eval%={t2_eval:.1f}<100")


# ---------------------------------------------------------------------------
# closed forms against Monte Carlo

def test_c04_lognormal_mean_against_mc(report):
    rng = np.random.default_rng(9001)
    worst = 0.0
    for _ in range(10):
        mu = rng.uniform(-2.0, 2.0)
        k = rng.uniform(0.05, 2.5)
        z = rng.standard_normal(1_000_000)
        mc = float(np.mean(np.exp(mu + math.sqrt(k) * z)))
        rel = abs(math.exp(lognormal_mean_log(mu, k)) / mc - 1.0)
        worst = max(worst, rel)
    ok = worst < 0.01
    report(4, ok, f"lognormal mean, 10 pairs x 1e6 draws: "
                  f"max rel err={worst:.2e}<1e-2")


def test_c05_variance_shrinks_on_append(report):
    rng = np.random.default_rng(1106)
    violations = 0
    for case in range(100):
        d = 1 + case % 4
        n = int(rng.integers(3, 10))
        x_train = rng.uniform(-2.0, 2.0, size=(n, d))
        hyper = KernelHyper(lengthscales=rng.uniform(0.6, 2.0, size=d),
                            signal_variance=float(rng.uniform(0.5, 4.0)))
        ledger = EvaluationLedger(
            Evaluation(theta=x, log_lik=float(rng.standard_normal()))
            for x in x_train)
        gp = kernelgp.fit(ledger, hyper, prior_mean=0.0)
        probes = rng.uniform(-2.0, 2.0, size=(20, d))
        before = np.array([kernelgp.predict(gp, p).variance for p in probes])
        grown = kernelgp.append(gp, Evaluation(
            theta=rng.uniform(-2.0, 2.0, size=d),
            log_lik=float(rng.standard_normal())))
        after = np.array([kernelgp.predict(grown, p).variance for p in probes])
        violations += int(np.sum(after > before + 1e-12))
    ok = violations == 0
    report(5, ok, f"variance monotone under append, 100 configs x 20 probes: "
                  f"violations beyond 1e-12 = {violations}")


def _mc_quadratic_expectation(rng, m, cov, w, u, smat, n=1_000_000):
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(cov.shape[0]))
    draws = m + rng.standard_normal((n, m.shape[0])) @ chol.T
    expo = w + draws @ u - 0.5 * np.einsum("ni,ij,nj->n", draws, smat, draws)
    return float(logsumexp(expo) - math.log(n))


def test_c06_langevin_marginal_against_mc(report):
    rng = np.random.default_rng(2204)
    worst_marginal = 0.0
    for case in range(20):
        d = 1 + case % 3
        params = MalaProposalParams.diagonal(
            float(rng.uniform(0.4, 1.2)), rng.uniform(0.3, 1.5, size=d))
        mu = float(rng.uniform(-1.0, 1.0))
        grad_mu = rng.standard_normal(d)
        a = rng.standard_normal((d + 1, d + 1))
        cov = 0.25 / (d + 1) * a @ a.T + 1e-8 * np.eye(d + 1)
        c = 0.5 * rng.standard_normal(d)
        closed = mala_marginal_log_factor(mu, grad_mu, cov, c, params)
        u = np.concatenate([[1.0], 0.5 * c])
        smat = np.zeros((1 + d, 1 + d))
        smat[1:, 1:] = 0.25 * params.delta * params.precond
        mc = _mc_quadratic_expectation(
            rng, np.concatenate([[mu], grad_mu]), cov, 0.0, u, smat)
        worst_marginal = max(worst_marginal, abs(math.exp(closed - mc) - 1.0))
    worst_quad = 0.0
    for case in range(20):
        n_dim = 1 + case % 3
        m = rng.standard_normal(n_dim)
        a = rng.standard_normal((n_dim, n_dim))
        cov = 0.3 / n_dim * a @ a.T + 1e-8 * np.eye(n_dim)
        b = rng.standard_normal((n_dim, n_dim))
        smat = 0.4 / n_dim * b @ b.T
        w = float(rng.uniform(-1.0, 1.0))
        u = 0.7 * rng.standard_normal(n_dim)
        closed = gaussian_quadratic_expectation(m, cov, w, u, smat)
        mc = _mc_quadratic_expectation(rng, m, cov, w, u, smat)
        worst_quad = max(worst_quad, abs(math.exp(closed - mc) - 1.0))
    ok = worst_marginal < 0.02 and worst_quad < 0.01
    report(6, ok, f"Langevin marginal factor, 20 configs x 1e6 draws: "
                  f"max rel err={worst_marginal:.2e}<2e-2; quadratic "
                  f"expectation: max rel err={worst_quad:.2e}<1e-2")


# ---------------------------------------------------------------------------
# exactness of the screening stage

def test_c07_screening_kernel_detailed_balance(report):
    # Frozen surrogate on a 41-point grid: the screening kernel must be
    # reversible for the density proportional to exp(mu + k/2) * prior when
    # the current-state value is the surrogate's own lognormal mean.
    grid = np.linspace(-3.0, 3.0, 41)
    ledger = EvaluationLedger(Evaluation(theta=np.array([x]), log_lik=-0.5 * x * x)
                              for x in (-2.0, -1.0, 0.0, 1.0, 2.0))
    hyper = KernelHyper(lengthscales=np.array([1.0]), signal_variance=1.0)
    gp = kernelgp.fit(ledger, hyper, prior_mean=0.0)

    preds = [kernelgp.predict(gp, np.array([x])) for x in grid]
    log_prior = -0.5 * grid**2 / 1.5**2
    log_pi = np.array([p.mean + 0.5 * p.variance for p in preds]) + log_prior
    log_pi -= np.max(log_pi)
    pi = np.exp(log_pi)
    pi /= pi.sum()

    diff = grid[:, None] - grid[None, :]
    w = np.exp(-0.5 * diff**2 / 0.8**2)
    np.fill_diagonal(w, 0.0)
    q = w / w.sum(axis=1, keepdims=True)

    n = grid.shape[0]
    flux = np.zeros((n, n))
    for i in range(n):
        current = StateSnapshot(theta=np.array([grid[i]]),
                                exact_ll=preds[i].mean + 0.5 * preds[i].variance,
                                log_prior=float(log_prior[i]))
        for j in range(n):
            if i == j:
                continue
            log_q_ratio = math.log(q[j, i]) - math.log(q[i, j])
            log_alpha1 = stage1_log_alpha_mh(current, np.array([grid[j]]), preds[j],
                                             float(log_prior[j]), log_q_ratio)
            flux[i, j] = pi[i] * q[i, j] * math.exp(log_alpha1)
    asym = float(np.max(np.abs(flux - flux.T)))
    ok = asym < 1e-10
    report(7, ok, f"41-point grid detailed balance: "
                  f"max flux asymmetry={asym:.2e}<1e-10")


def test_c08_stage2_forms_agree(report):
    rng = np.random.default_rng(3407)
    worst = 0.0
    for _ in range(200):
        current = StateSnapshot(theta=np.zeros(1),
                                exact_ll=float(rng.normal(0.0, 2.0)),
                                log_prior=float(rng.normal(0.0, 2.0)))
        pred = SurrogatePrediction(mean=float(rng.normal(0.0, 3.0)),
                                   variance=float(rng.uniform(0.01, 2.0)))
        logp_star = float(rng.normal(0.0, 2.0))
        log_q_ratio = float(rng.normal(0.0, 1.0))
        ll_star = float(rng.normal(0.0, 3.0))
        log_alpha1 = stage1_log_alpha_mh(current, np.ones(1), pred,
                                         logp_star, log_q_ratio)
        simplified = stage2_log_alpha_mh(ll_star, pred)
        r = (lognormal_mean_log(pred.mean, pred.variance) + logp_star + log_q_ratio
             - current.exact_ll - current.log_prior)
        direct = min(0.0, (ll_star + logp_star + log_q_ratio + min(0.0, -r))
                     - (current.exact_ll + current.log_prior + log_alpha1))
        worst = max(worst, abs(direct - simplified))
    ok = worst <= 1e-12
    report(8, ok, f"stage-2 direct vs simplified, 200 draws: "
                  f"max |diff|={worst:.2e}<=1e-12")


# ---------------------------------------------------------------------------
# chain-level behaviour on the 1D standard normal

def test_c09_alpha_gap_declines(report):
    # Uninformed fixed surrogate (huge prior variance, short lengthscale):
    # screening optimism decays as the ledger fills in, so the window means
    # of |alpha1 - alpha2| must fall across the first five windows.
    passes = 0
    first_series = None
    for seed in range(10):
        target = standard_normal_target(1)
        cfg = SamplerConfig(proposal_scales=np.array([2.4]), n_iters=600,
                            n_burnin=0, seed=seed, gp_init_count=3,
                            init_hyper=KernelHyper(np.array([0.05]), 25600.0))
        trace = run_gp_mh(target, cfg, target.initial_point(_init_rng(seed)))
        gaps = [g for _, g in alpha_gap_series(trace, 100)[:5]]
        strict = len(gaps) == 5 and all(gaps[i] > gaps[i + 1] for i in range(4))
        passes += strict
        if first_series is None:
            first_series = np.round(gaps, 3).tolist()
    ok = passes >= 8
    report(9, ok, f"alpha-gap strictly decreasing over 5 windows in "
                  f"{passes}/10 seeds (need >=8); seed0 series={first_series}")


def test_c10_ks_against_plain_random_walk(report):
    thin, keep, burn = 4, 2000, 500
    n_iters = burn + thin * keep
    crit = 1.628 * math.sqrt(2.0 / keep)  # two-sample 1% level, n = m = 2000
    passes = 0
    worst = 0.0
    for seed in range(10):
        t_mh = standard_normal_target(1)
        t_gp = standard_normal_target(1)
        base = dict(proposal_scales=np.array([2.4]), n_iters=n_iters,
                    n_burnin=burn, seed=seed)
        tr_mh = run_mh(t_mh, SamplerConfig(**base),
                       t_mh.initial_point(_init_rng(seed)))
        tr_gp = run_gp_mh(t_gp, SamplerConfig(**base, ledger_cap=300,
                                              gp_init_count=3,
                                              hyper_update_every=20,
                                              hyper_opt_budget=60),
                          t_gp.initial_point(_init_rng(seed)))
        ks = ks_2samp(tr_mh.thetas[burn::thin, 0][:keep],
                      tr_gp.thetas[burn::thin, 0][:keep]).statistic
        passes += ks < crit
        worst = max(worst, ks)
    ok = passes >= 8
    report(10, ok, f"KS vs plain chain below {crit:.4f} in {passes}/10 seeds "
                   f"(need >=8); max KS={worst:.4f}")


# ---------------------------------------------------------------------------
# engineering bar

def _smooth_eval(x, with_grad: bool) -> Evaluation:
    s = float(np.sum(x))
    value = math.sin(s) + 0.5 * float(x @ x)
    grad = math.cos(s) + x if with_grad else None
    return Evaluation(theta=x, log_lik=value, grad=grad)


def test_c11_engineering_bar(report, tmp_path):
    rng = np.random.default_rng(5512)

    # append against refit, value and joint-gradient modes
    worst_append = 0.0
    for d, n, grad_mode in ((1, 6, False), (2, 8, False), (3, 10, False),
                            (2, 7, True), (3, 9, True)):
        points = [rng.uniform(-2.0, 2.0, size=d) for _ in range(n)]
        evals = [_smooth_eval(x, grad_mode) for x in points]
        hyper = KernelHyper(lengthscales=np.full(d, 1.2), signal_variance=2.0)
        grown = kernelgp.append(
            kernelgp.fit(EvaluationLedger(evals[:-1]), hyper, prior_mean=0.3,
                         gradient_mode=grad_mode), evals[-1])
        refit = kernelgp.fit(EvaluationLedger(evals), hyper, prior_mean=0.3,
                             gradient_mode=grad_mode)
        for probe in rng.uniform(-2.0, 2.0, size=(10, d)):
            pa = (kernelgp.predict_joint if grad_mode else kernelgp.predict)
            a, b = pa(grown, probe), pa(refit, probe)
            worst_append = max(worst_append, abs(a.mean - b.mean),
                               abs(a.variance - b.variance))
            if grad_mode:
                worst_append = max(
                    worst_append,
                    float(np.max(np.abs(a.grad_mean - b.grad_mean))),
                    float(np.max(np.abs(a.joint_cov - b.joint_cov))))

    # analytic gradients against central finite differences
    worst_target = 0.0
    for name, wiggle in (("t1", 0.5), ("t2", None), ("t5", 0.5)):
        target = make_target(name, seed=0)
        for _ in range(5):
            if name == "t2":
                theta = np.array([0.14, 50.0, 0.1]) * (
                    1.0 + 0.1 * rng.standard_normal(3))
                theta[2] = 0.1 * math.exp(0.2 * rng.standard_normal())
            else:
                theta = target.initial_point(rng) + wiggle * rng.standard_normal(target.dim)
            g = target.grad_log_likelihood(theta)
            fd = central_fd(target.log_likelihood, theta)
            worst_target = max(worst_target, float(np.max(
                np.abs(g - fd) / np.maximum(1.0, np.abs(g)))))

    # surrogate predictive gradient against finite differences of its mean
    pts = [rng.uniform(-1.5, 1.5, size=2) for _ in range(8)]
    gp = kernelgp.fit(EvaluationLedger(_smooth_eval(x, True) for x in pts),
                      KernelHyper(np.full(2, 1.0), 1.5), prior_mean=0.0,
                      gradient_mode=True)
    worst_gp = 0.0
    for probe in rng.uniform(-1.2, 1.2, size=(5, 2)):
        jp = kernelgp.predict_joint(gp, probe)
        fd = central_fd(lambda x: kernelgp.predict(gp, x).mean, probe, rel_h=1e-5)
        worst_gp = max(worst_gp, float(np.max(
            np.abs(jp.grad_mean - fd) / np.maximum(1.0, np.abs(jp.grad_mean)))))

    # byte-identical rerun through the command-line entry point
    args = ["run", "--target", "t1", "--algo", "gp-mh", "--iters", "60",
            "--burnin", "20", "--seed", "3"]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
        assert cli.main(args + ["--out", str(d)]) == 0
    t_a, t_b = (d / "trace_t1_gp-mh_seed3.csv" for d in dirs)
    identical = t_a.read_bytes() == t_b.read_bytes()
    docs = []
    for d in dirs:
        doc = json.loads((d / "metrics_t1_gp-mh_seed3.json").read_text())
        doc["metrics"].pop("wall_clock_seconds")
        docs.append(doc)
    identical = identical and docs[0] == docs[1]

    # closed compartment totals under the fixed-step integrator
    worst_sir = 0.0
    times = np.arange(1.0, 21.0)
    for beta, gamma in ((0.4, 0.1), (1.2, 0.05), (0.3, 0.6)):
        s, i, r = sir_solve(beta, gamma, 0.99, 0.01, times)
        worst_sir = max(worst_sir, float(np.max(np.abs(s + i + r - 1.0))))

    ok = (worst_append <= 1e-8 and worst_target <= 1e-5
          and worst_gp <= 1e-4 and identical and worst_sir <= 1e-8)
    report(11, ok,
           f"append/refit={worst_append:.2e}<=1e-8 "
           f"target grads={worst_target:.2e}<=1e-5 "
           f"surrogate grads={worst_gp:.2e}<=1e-4 "
           f"rerun identical={identical} sir drift={worst_sir:.2e}<=1e-8")
