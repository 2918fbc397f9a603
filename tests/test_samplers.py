"""Tests for the chain drivers: trace invariants, evaluation accounting,
determinism and initial-design construction. Detailed balance of the
screening stage on a frozen surrogate is criterion c07 in test_acceptance."""

import math

import numpy as np
import pytest

from surrogate_mcmc import acceptance, kernelgp, samplers
from surrogate_mcmc.acceptance import MalaProposalParams
from surrogate_mcmc.kernelgp import Evaluation, EvaluationLedger, KernelHyper
from surrogate_mcmc.diagnostics import build_metrics
from surrogate_mcmc.samplers import (
    InitializationError,
    SamplerConfig,
    _maybe_append,
    init_ledger,
    run_gp_mala,
    run_gp_mh,
    run_mala,
    run_mh,
)
from surrogate_mcmc.targets import (
    CapabilityError,
    TargetInstance,
    make_target,
    standard_normal_target,
)


def gauss_config(dim=1, **kw):
    kw.setdefault("proposal_scales", np.full(dim, 2.4 / math.sqrt(dim)))
    kw.setdefault("n_iters", 400)
    kw.setdefault("n_burnin", 100)
    return SamplerConfig(**kw)


def bounded_prior_target(bound=0.5):
    """Standard normal likelihood restricted by a box prior."""

    def log_prior(theta):
        return 0.0 if np.all(np.abs(theta) <= bound) else -math.inf

    return TargetInstance(
        name="boxed", dim=1, true_params=np.zeros(1), data=None,
        capabilities={"gradient"},
        log_prior_fn=log_prior,
        grad_log_prior_fn=lambda theta: np.zeros(1),
        log_lik_fn=lambda theta: float(-0.5 * theta @ theta),
        grad_log_lik_fn=lambda theta: -theta,
        initial_point_fn=lambda rng: np.zeros(1),
        proposal_scales=(2.0,))


# ---------------------------------------------------------------------------
# configuration validation

def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(proposal_scales=(0.0,))
    with pytest.raises(ValueError):
        SamplerConfig(proposal_scales=(1.0,), n_iters=0)
    with pytest.raises(ValueError):
        SamplerConfig(proposal_scales=(1.0,), n_iters=10, n_burnin=10)
    with pytest.raises(ValueError):
        SamplerConfig(proposal_scales=(1.0,), gp_init_count=0)
    with pytest.raises(ValueError):
        SamplerConfig(proposal_scales=(1.0,), hyper_update_every=0)
    with pytest.raises(ValueError):
        SamplerConfig(proposal_scales=(1.0,), hyper_opt_budget=-1)
    with pytest.raises(ValueError):
        SamplerConfig(proposal_scales=(1.0,), gp_init_count=5, ledger_cap=4)
    assert SamplerConfig(proposal_scales=(1.0, 2.0)).dim == 2


def test_dim_mismatch_rejected():
    target = standard_normal_target(2)
    with pytest.raises(ValueError, match="dimension"):
        run_mh(target, gauss_config(dim=1), np.zeros(1))


# ---------------------------------------------------------------------------
# baselines

def test_mh_standard_normal_moments():
    target = standard_normal_target(1)
    config = gauss_config(n_iters=4000, n_burnin=500, seed=1)
    trace = run_mh(target, config, np.zeros(1))
    post = trace.post_burnin()[:, 0]
    assert abs(post.mean()) < 0.2
    assert 0.7 < post.var() < 1.4
    ar = trace.stage2_accepted[config.n_burnin:].mean()
    assert 0.3 < ar < 0.6


def test_mh_trace_mirrors_single_decision():
    target = standard_normal_target(1)
    trace = run_mh(target, gauss_config(seed=3), np.zeros(1))
    assert not trace.two_stage
    assert trace.algo == "mh"
    assert trace.gp_init_evals == 0
    assert np.array_equal(trace.stage1_log_alpha, trace.stage2_log_alpha)
    assert np.array_equal(trace.stage1_accepted, trace.stage2_accepted)
    assert trace.full_eval.all()
    # one counted evaluation per iteration plus the starting-point evaluation
    assert trace.n_full_evals == trace.n_iters
    assert target.eval_count == trace.n_iters + 1


def test_mala_standard_normal():
    target = standard_normal_target(2)
    scales = np.full(2, 2.4 / math.sqrt(2))
    config = SamplerConfig(proposal_scales=scales, n_iters=3000, n_burnin=500,
                           mala=MalaProposalParams.diagonal(1.4, scales**2), seed=2)
    trace = run_mala(target, config, np.zeros(2))
    assert trace.algo == "mala"
    assert trace.full_eval.all()
    assert np.array_equal(trace.stage1_accepted, trace.stage2_accepted)
    post = trace.post_burnin()
    assert np.all(np.abs(post.mean(axis=0)) < 0.25)
    assert np.all((post.var(axis=0) > 0.6) & (post.var(axis=0) < 1.5))


def test_mala_requires_params_and_gradients():
    target = standard_normal_target(1)
    with pytest.raises(ValueError, match="mala"):
        run_mala(target, gauss_config(), np.zeros(1))
    t4 = make_target("t4", 0)
    config = SamplerConfig(proposal_scales=t4.proposal_scales, n_iters=10,
                           n_burnin=0,
                           mala=MalaProposalParams.diagonal(0.5, np.ones(4)))
    with pytest.raises(CapabilityError):
        run_mala(t4, config, t4.true_params)
    with pytest.raises(CapabilityError):
        run_gp_mala(t4, config, t4.true_params)


def test_mala_preconditioner_dim_check():
    target = standard_normal_target(2)
    scales = np.full(2, 1.0)
    config = SamplerConfig(proposal_scales=scales, n_iters=10, n_burnin=0,
                           mala=MalaProposalParams.diagonal(0.5, np.ones(3)))
    with pytest.raises(ValueError, match="dimension"):
        run_mala(target, config, np.zeros(2))


# ---------------------------------------------------------------------------
# determinism

def test_same_seed_bit_identical_traces():
    def one(runner, mala=False):
        target = standard_normal_target(1)
        kw = {}
        if mala:
            kw["mala"] = MalaProposalParams.diagonal(1.4, np.array([5.76]))
        trace = runner(target, gauss_config(seed=17, **kw), np.zeros(1))
        return trace

    for runner, mala in ((run_mh, False), (run_mala, True),
                         (run_gp_mh, False), (run_gp_mala, True)):
        a = one(runner, mala)
        b = one(runner, mala)
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.stage1_log_alpha, b.stage1_log_alpha, equal_nan=True)
        assert np.array_equal(a.stage2_log_alpha, b.stage2_log_alpha, equal_nan=True)
        assert np.array_equal(a.full_eval, b.full_eval)
        assert a.gp_init_evals == b.gp_init_evals
        assert a.ledger_size == b.ledger_size


def test_different_seeds_differ():
    target = standard_normal_target(1)
    a = run_mh(target, gauss_config(seed=0), np.zeros(1))
    b = run_mh(target, gauss_config(seed=1), np.zeros(1))
    assert not np.array_equal(a.thetas, b.thetas)


# ---------------------------------------------------------------------------
# two-stage trace invariants and accounting

def test_gp_mh_trace_invariants():
    target = standard_normal_target(1)
    config = gauss_config(n_iters=600, n_burnin=150, seed=5)
    trace = run_gp_mh(target, config, np.zeros(1))
    assert trace.two_stage
    assert trace.algo == "gp-mh"
    rejected1 = ~trace.stage1_accepted
    # stage-2 quantities exist exactly when the screen passed
    assert np.all(np.isnan(trace.stage2_log_alpha[rejected1]))
    assert not np.any(np.isnan(trace.stage2_log_alpha[trace.stage1_accepted]))
    assert not trace.stage2_accepted[rejected1].any()
    # exact evaluations happen exactly when the screen passed
    assert np.array_equal(trace.full_eval, trace.stage1_accepted)
    # chain stays put unless stage 2 accepted
    same = trace.thetas[1:] == trace.thetas[:-1]
    assert np.all(same[~trace.stage2_accepted[1:]])
    # screening must filter something on this target
    assert rejected1.sum() > 0


def test_gp_mh_eval_accounting_matches_counter():
    target = standard_normal_target(1)
    config = gauss_config(n_iters=500, n_burnin=100, seed=9, gp_init_count=4)
    trace = run_gp_mh(target, config, np.zeros(1))
    assert trace.n_full_evals == int(trace.full_eval.sum()) + trace.gp_init_evals
    assert target.eval_count == trace.n_full_evals
    assert trace.gp_init_evals >= config.gp_init_count
    assert trace.ledger_size >= config.gp_init_count
    assert trace.ledger_size <= config.gp_init_count + int(trace.stage1_accepted.sum())


def test_gp_mala_eval_accounting_matches_counter():
    target = standard_normal_target(2)
    scales = np.full(2, 2.4 / math.sqrt(2))
    config = SamplerConfig(proposal_scales=scales, n_iters=300, n_burnin=100,
                           mala=MalaProposalParams.diagonal(1.4, scales**2), seed=4)
    trace = run_gp_mala(target, config, np.zeros(2))
    assert trace.two_stage
    assert trace.algo == "gp-mala"
    assert target.eval_count == trace.n_full_evals
    assert np.array_equal(trace.full_eval, trace.stage1_accepted)
    rejected1 = ~trace.stage1_accepted
    assert np.all(np.isnan(trace.stage2_log_alpha[rejected1]))


@pytest.mark.parametrize("runner", [run_mala, run_gp_mala])
def test_langevin_move_computes_each_drift_and_density_once(monkeypatch, runner):
    # per move: one forward drift, one forward density and, where the exact
    # ratio is formed, one reverse drift and density; stage 1 adds only the
    # density of its marginalised reverse move
    calls = {"mala_drift": 0, "proposal_log_density": 0}
    for name in calls:
        def counted(*args, _original=getattr(acceptance, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(acceptance, name, counted)
        monkeypatch.setattr(samplers, name, counted)
    target = standard_normal_target(2)  # flat prior: every move is screened
    scales = np.full(2, 2.4 / math.sqrt(2))
    config = SamplerConfig(proposal_scales=scales, n_iters=200, n_burnin=50,
                           mala=MalaProposalParams.diagonal(1.4, scales**2), seed=4)
    trace = runner(target, config, np.zeros(2))
    n, exact = config.n_iters, int(trace.full_eval.sum())
    screens = n if trace.two_stage else 0
    assert 0 < exact
    assert calls["mala_drift"] == n + exact
    assert calls["proposal_log_density"] == screens + n + exact


def test_gp_mh_moments_reasonable():
    target = standard_normal_target(1)
    config = gauss_config(n_iters=3000, n_burnin=500, seed=11)
    trace = run_gp_mh(target, config, np.zeros(1))
    post = trace.post_burnin()[:, 0]
    assert abs(post.mean()) < 0.25
    assert 0.65 < post.var() < 1.5


def test_ledger_cap_respected():
    target = standard_normal_target(1)
    config = gauss_config(n_iters=400, n_burnin=100, seed=6, ledger_cap=5)
    trace = run_gp_mh(target, config, np.zeros(1))
    assert trace.ledger_size <= 5
    # still produced exact evaluations beyond the cap
    assert int(trace.full_eval.sum()) > 5


# a kernel whose nugget is below rounding: a point 1e-13 away from a stored
# one makes the appended Schur complement exactly zero
SINGULAR_HYPER = KernelHyper(lengthscales=(1.0,), signal_variance=1.0, jitter=1e-30)


def test_ill_conditioned_append_leaves_ledger_and_surrogate_in_step():
    ledger = EvaluationLedger([Evaluation(theta=np.zeros(1), log_lik=-0.5)])
    gp = kernelgp.fit(ledger, SINGULAR_HYPER, prior_mean=-0.5)
    chol, white = gp.chol.copy(), gp.white.copy()
    config = gauss_config(init_hyper=SINGULAR_HYPER, gp_init_count=1)
    with pytest.raises(kernelgp.IllConditionedKernelError):
        _maybe_append(gp, config, np.array([1e-13]), -0.5, None)
    assert gp.n_train == len(gp.data) == 1 and gp.data is ledger
    assert np.array_equal(gp.chol, chol) and np.array_equal(gp.white, white)
    grown = _maybe_append(gp, config, np.array([1.0]), -1.0, None)
    assert grown.n_train == len(grown.data) == 2
    assert gp.n_train == 1


def test_two_stage_chain_skips_and_counts_singular_appends():
    target = standard_normal_target(1)
    config = SamplerConfig(proposal_scales=(1e-13,), n_iters=60, n_burnin=10,
                           gp_init_count=1, init_hyper=SINGULAR_HYPER, seed=3)
    trace = run_gp_mh(target, config, np.zeros(1))
    assert trace.ledger_size == 1
    assert trace.skipped_appends == int(trace.full_eval.sum()) > 0
    assert trace.n_full_evals == target.eval_count
    report = build_metrics(trace, target.true_params)
    assert report.to_dict()["skipped_appends"] == trace.skipped_appends


def test_two_stage_chain_keeps_its_surrogate_when_a_refit_is_singular(monkeypatch):
    real_fit = kernelgp.fit
    sizes = []

    def fit_singular_at_first_refit(ledger, *args, **kwargs):
        sizes.append(len(ledger))
        if len(sizes) == 2:
            raise kernelgp.IllConditionedKernelError("singular refit")
        return real_fit(ledger, *args, **kwargs)

    # with no search budget, every fit after the initial one is a refit's
    monkeypatch.setattr(kernelgp, "fit", fit_singular_at_first_refit)
    target = standard_normal_target(1)
    config = gauss_config(hyper_update_every=5, hyper_opt_budget=0, seed=2)
    trace = run_gp_mh(target, config, np.zeros(1))
    assert len(sizes) > 2  # the chain went on and refit again later
    assert trace.n_iters == config.n_iters
    assert trace.skipped_refits == 1
    assert trace.n_full_evals == target.eval_count
    report = build_metrics(trace, target.true_params)
    assert report.to_dict()["skipped_refits"] == 1


def test_infinite_prior_shortcut():
    target = bounded_prior_target(bound=0.5)
    config = SamplerConfig(proposal_scales=(2.0,), n_iters=300, n_burnin=50, seed=8)
    trace = run_gp_mh(target, config, np.zeros(1))
    out = np.isinf(trace.stage1_log_alpha) & ~trace.stage1_accepted
    assert out.sum() > 0
    # no exact evaluation and no stage-2 record on those iterations
    assert not trace.full_eval[out].any()
    assert np.all(np.isnan(trace.stage2_log_alpha[out]))
    assert np.all(np.abs(trace.thetas) <= 0.5)


def test_hyper_reopt_confined_to_burnin(monkeypatch):
    calls = []
    real = kernelgp.optimize_hypers

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(kernelgp, "optimize_hypers", counting)

    def run(n_iters):
        target = standard_normal_target(1)
        config = gauss_config(n_iters=n_iters, n_burnin=120, seed=13,
                              hyper_update_every=2, hyper_opt_budget=10)
        run_gp_mh(target, config, np.zeros(1))

    run(240)
    in_short = len(calls)
    calls.clear()
    run(480)
    in_long = len(calls)
    assert in_short >= 1
    # doubling the post-burn-in stretch must not add refits
    assert in_long == in_short


# ---------------------------------------------------------------------------
# initial design

def test_start_state_errors():
    boxed = bounded_prior_target(bound=0.5)
    config = SamplerConfig(proposal_scales=(1.0,), n_iters=10, n_burnin=0)
    with pytest.raises(InitializationError, match="prior"):
        run_mh(boxed, config, np.array([3.0]))

    hole = TargetInstance(
        name="hole", dim=1, true_params=np.zeros(1), data=None,
        capabilities=set(),
        log_prior_fn=lambda theta: 0.0,
        log_lik_fn=lambda theta: -math.inf,
        initial_point_fn=lambda rng: np.zeros(1),
        proposal_scales=(1.0,))
    with pytest.raises(InitializationError, match="log-likelihood"):
        run_mh(hole, config, np.zeros(1))


def test_init_ledger_basic():
    target = standard_normal_target(1)
    config = gauss_config(gp_init_count=4, seed=2)
    ledger, n_evals = init_ledger(target, np.array([0.3]), config)
    assert len(ledger) == 4
    assert n_evals >= 4
    assert np.array_equal(ledger[0].theta, np.array([0.3]))
    assert all(math.isfinite(ledger[i].log_lik) for i in range(4))


def test_init_ledger_redraws_past_infinite_values():
    def log_lik(theta):
        return float(-0.5 * theta @ theta) if theta[0] > 0 else -math.inf

    target = TargetInstance(
        name="half", dim=1, true_params=np.zeros(1), data=None,
        capabilities=set(),
        log_prior_fn=lambda theta: 0.0,
        log_lik_fn=log_lik,
        initial_point_fn=lambda rng: np.full(1, 0.1),
        proposal_scales=(3.0,))
    config = SamplerConfig(proposal_scales=(3.0,), n_iters=10, n_burnin=0,
                           gp_init_count=5, seed=0)
    ledger, n_evals = init_ledger(target, np.full(1, 0.1), config)
    assert len(ledger) == 5
    assert all(math.isfinite(ledger[i].log_lik) for i in range(5))
    assert all(ledger[i].theta[0] > 0 for i in range(5))
    # discarded draws are still paid for
    assert n_evals == target.eval_count


def test_init_ledger_duplicate_draws_rejected():
    class ZeroRng:
        def standard_normal(self, size=None):
            return np.zeros(size if size is not None else 1)

    target = standard_normal_target(1)
    config = gauss_config(gp_init_count=3)
    with pytest.raises(InitializationError, match="duplicate"):
        init_ledger(target, np.zeros(1), config, rng=ZeroRng())


def test_init_ledger_exhaustion():
    def log_lik(theta):
        return 0.0 if theta[0] == 0.0 else -math.inf

    target = TargetInstance(
        name="point", dim=1, true_params=np.zeros(1), data=None,
        capabilities=set(),
        log_prior_fn=lambda theta: 0.0,
        log_lik_fn=log_lik,
        initial_point_fn=lambda rng: np.zeros(1),
        proposal_scales=(1.0,))
    config = SamplerConfig(proposal_scales=(1.0,), n_iters=10, n_burnin=0,
                           gp_init_count=2, seed=0)
    with pytest.raises(InitializationError, match="finite"):
        init_ledger(target, np.zeros(1), config)


def test_init_ledger_gradient_mode_stores_gradients():
    target = standard_normal_target(2)
    scales = np.full(2, 1.0)
    config = SamplerConfig(proposal_scales=scales, n_iters=10, n_burnin=0,
                           gp_init_count=3, seed=1,
                           mala=MalaProposalParams.diagonal(0.8, scales**2))
    ledger, n_evals = init_ledger(target, np.zeros(2), config, gradient_mode=True)
    assert len(ledger) == 3
    for i in range(3):
        grad = ledger[i].grad
        assert grad is not None
        np.testing.assert_allclose(grad, -ledger[i].theta, rtol=0, atol=0)
    assert n_evals == target.eval_count
