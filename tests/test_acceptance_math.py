import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from surrogate_mcmc.acceptance import (MalaProposalParams, StateSnapshot,
                                       _require_finite,
                                       gaussian_quadratic_expectation,
                                       lognormal_mean_log, mala_drift,
                                       mala_marginal_log_factor,
                                       proposal_log_density,
                                       stage1_log_alpha_mala,
                                       stage1_log_alpha_mh,
                                       stage2_log_alpha_mala,
                                       stage2_log_alpha_mh)
from surrogate_mcmc.kernelgp import SurrogatePrediction


def snapshot(theta, ll, lp, grad=None):
    return StateSnapshot(theta=np.atleast_1d(np.asarray(theta, float)),
                         exact_ll=ll, log_prior=lp, exact_grad_ll=grad)


# ---------------------------------------------------------------------------
# lognormal mean

def test_lognormal_mean_log_values():
    assert lognormal_mean_log(0.0, 0.0) == 0.0
    assert lognormal_mean_log(1.5, 2.0) == pytest.approx(2.5)


def test_lognormal_mean_log_matches_monte_carlo():
    rng = np.random.default_rng(0)
    draws = -1.0 + math.sqrt(0.5) * rng.standard_normal(1_000_000)
    mc = float(np.mean(np.exp(draws)))
    assert math.exp(lognormal_mean_log(-1.0, 0.5)) == pytest.approx(mc, rel=0.01)


def test_lognormal_mean_log_rejects_negative_variance():
    with pytest.raises(ValueError):
        lognormal_mean_log(0.0, -1e-9)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, np.float64(math.inf),
                                 np.float32(math.nan), np.array(math.nan),
                                 np.array([0.0, math.inf])])
def test_require_finite_rejects_scalars_and_arrays_alike(bad):
    _require_finite("probe", 0.5, 3, np.int64(2), np.zeros(2))
    with pytest.raises(ValueError, match=r"^non-finite value in probe: "):
        _require_finite("probe", 0.5, bad)


# ---------------------------------------------------------------------------
# random-walk stage 1

def test_stage1_mh_balanced_ratio_accepts_certainly():
    cur = snapshot([0.0], ll=-2.0, lp=0.0)
    pred = SurrogatePrediction(mean=-2.5, variance=1.0)  # mean + var/2 = -2
    assert stage1_log_alpha_mh(cur, [1.0], pred, proposal_log_prior=0.0) == 0.0


def test_stage1_mh_variance_raises_ratio():
    cur = snapshot([0.0], ll=-2.0, lp=0.0)
    lo = stage1_log_alpha_mh(cur, [1.0], SurrogatePrediction(-3.0, 0.0), 0.0)
    hi = stage1_log_alpha_mh(cur, [1.0], SurrogatePrediction(-3.0, 2.0), 0.0)
    assert hi - lo == pytest.approx(1.0, abs=1e-12)


def test_stage1_mh_hand_value():
    cur = snapshot([0.0], ll=-2.0, lp=0.0)
    log_alpha1 = stage1_log_alpha_mh(cur, [1.0], SurrogatePrediction(-3.0, 1.0), 0.0)
    assert log_alpha1 == pytest.approx(-0.5, abs=1e-12)
    assert math.exp(log_alpha1) == pytest.approx(0.6065, abs=1e-4)


def test_stage1_mh_rejects_non_finite_inputs():
    cur = snapshot([0.0], ll=-2.0, lp=0.0)
    with pytest.raises(ValueError):
        stage1_log_alpha_mh(cur, [1.0], SurrogatePrediction(math.nan, 0.0), 0.0)
    with pytest.raises(ValueError):
        stage1_log_alpha_mh(cur, [1.0], SurrogatePrediction(-1.0, 0.0), -math.inf)


# ---------------------------------------------------------------------------
# random-walk stage 2

def test_stage2_mh_perfect_surrogate_accepts_certainly():
    assert stage2_log_alpha_mh(-3.0, SurrogatePrediction(-3.5, 1.0)) == 0.0


def test_stage2_mh_hand_value():
    out = stage2_log_alpha_mh(-3.0, SurrogatePrediction(-2.5, 1.0))
    assert out == pytest.approx(-1.0, abs=1e-12)
    assert math.exp(out) == pytest.approx(0.3679, abs=1e-4)


def test_stage2_mh_input_validation():
    pred = SurrogatePrediction(-2.0, 0.0)
    with pytest.raises(ValueError):
        stage2_log_alpha_mh(math.nan, pred)
    with pytest.raises(ValueError):
        stage2_log_alpha_mh(math.inf, pred)
    assert stage2_log_alpha_mh(-math.inf, pred) == -math.inf


# ---------------------------------------------------------------------------
# Langevin pieces

def test_mala_drift_zero_gradients_leave_theta():
    params = MalaProposalParams.diagonal(0.5, [2.0])
    np.testing.assert_allclose(mala_drift([1.3], [0.0], [0.0], params), [1.3])


def test_mala_drift_hand_value():
    params = MalaProposalParams.diagonal(0.5, [2.0])
    out = mala_drift([1.0], [1.0], [-3.0], params)
    assert out[0] == pytest.approx(0.0)  # 1 + 0.5*0.5*2*(-2) = 0


def test_mala_drift_linearity():
    params = MalaProposalParams.from_matrix(0.3, [[1.0, 0.2], [0.2, 0.8]])
    theta = np.array([0.5, -0.5])
    g1, g2 = np.array([1.0, 0.0]), np.array([0.0, 2.0])
    a = mala_drift(theta, g1 + g2, [0.0, 0.0], params) - theta
    b = (mala_drift(theta, g1, [0.0, 0.0], params) - theta
         + mala_drift(theta, g2, [0.0, 0.0], params) - theta)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_proposal_log_density_matches_scipy():
    params = MalaProposalParams.from_matrix(0.7, [[1.0, 0.3], [0.3, 2.0]])
    rv = multivariate_normal(mean=[0.0, 0.0], cov=0.7 * np.array([[1.0, 0.3], [0.3, 2.0]]))
    rng = np.random.default_rng(2)
    for _ in range(10):
        r = rng.standard_normal(2)
        assert proposal_log_density(r, params) == pytest.approx(rv.logpdf(r), abs=1e-10)


def test_mala_params_validation():
    with pytest.raises(ValueError):
        MalaProposalParams.diagonal(0.0, [1.0])
    with pytest.raises(ValueError):
        MalaProposalParams.diagonal(0.5, [1.0, -1.0])
    with pytest.raises(ValueError):
        MalaProposalParams.from_matrix(0.5, [[1.0, 2.0], [2.0, 1.0]])  # not PD
    with pytest.raises(ValueError):
        MalaProposalParams.from_matrix(0.5, [[1.0, 0.5], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        MalaProposalParams(delta=0.5, precond=np.eye(2), precond_sqrt=2 * np.eye(2))
    assert MalaProposalParams.diagonal(0.5, [1.0, 2.0]).dim == 2


# ---------------------------------------------------------------------------
# Gaussian quadratic-exponential expectation

def test_gqe_constant_case():
    assert gaussian_quadratic_expectation([0.0, 1.0], np.eye(2), 0.7,
                                          [0.0, 0.0], np.zeros((2, 2))) == pytest.approx(0.7)


def test_gqe_reduces_to_gaussian_mgf_when_s_zero():
    rng = np.random.default_rng(3)
    m = rng.standard_normal(3)
    a = rng.standard_normal((3, 3))
    cov = a @ a.T
    u = rng.standard_normal(3)
    got = gaussian_quadratic_expectation(m, cov, 0.2, u, np.zeros((3, 3)))
    assert got == pytest.approx(0.2 + u @ m + 0.5 * u @ cov @ u, abs=1e-10)


def test_gqe_scalar_case_agrees_with_lognormal_mean():
    got = gaussian_quadratic_expectation([-1.0], [[0.5]], 0.0, [1.0], [[0.0]])
    assert got == pytest.approx(lognormal_mean_log(-1.0, 0.5), abs=1e-12)


def test_gqe_matches_monte_carlo():
    rng = np.random.default_rng(4)
    m = np.array([0.2, -0.4, 0.1])
    a = 0.4 * rng.standard_normal((3, 3))
    cov = a @ a.T
    u = np.array([0.6, -0.3, 0.5])
    smat = np.diag([0.2, 0.1, 0.3])
    w = 0.3
    draws = rng.multivariate_normal(m, cov, size=1_000_000)
    vals = np.exp(w + draws @ u - 0.5 * np.einsum("ij,jk,ik->i", draws, smat, draws))
    mc = float(vals.mean())
    got = math.exp(gaussian_quadratic_expectation(m, cov, w, u, smat))
    assert got == pytest.approx(mc, rel=0.01)


def test_gqe_rejects_negative_determinant():
    with pytest.raises(ValueError):
        gaussian_quadratic_expectation([0.0], [[1.0]], 0.0, [0.0], [[-2.0]])


# ---------------------------------------------------------------------------
# marginalized Langevin numerator

def _hand_marginal_no_uncertainty(mu, grad_mu, c, params):
    # deterministic surrogate: e^mu times the drifted proposal density,
    # relative to the prior-drift-only density at c
    lam = params.precond
    delta = params.delta
    grad_mu = np.atleast_1d(np.asarray(grad_mu, float))
    c = np.atleast_1d(np.asarray(c, float))
    shifted = c - 0.5 * delta * lam @ grad_mu
    q_shifted = multivariate_normal(mean=np.zeros(params.dim), cov=delta * lam).logpdf(shifted)
    q_c = multivariate_normal(mean=np.zeros(params.dim), cov=delta * lam).logpdf(c)
    return mu + q_shifted - q_c


def test_marginal_factor_zero_covariance_reduces_to_plugin():
    params = MalaProposalParams.from_matrix(0.4, [[1.0, 0.2], [0.2, 0.7]])
    mu, grad_mu = -1.2, np.array([0.5, -0.8])
    c = np.array([0.3, 0.1])
    got = mala_marginal_log_factor(mu, grad_mu, np.zeros((3, 3)), c, params)
    assert got == pytest.approx(_hand_marginal_no_uncertainty(mu, grad_mu, c, params),
                                abs=1e-10)


def test_marginal_factor_zero_gradient_mean():
    params = MalaProposalParams.diagonal(0.3, [1.0])
    got = mala_marginal_log_factor(-0.7, [0.0], np.zeros((2, 2)), [0.2], params)
    assert got == pytest.approx(-0.7, abs=1e-12)


def _mc_marginal_factor(mu, grad_mu, cov, c, params, n, seed):
    # ground truth: draw (f, grad f) jointly, average e^f q(c - 0.5 delta L g)
    rng = np.random.default_rng(seed)
    d = params.dim
    mean = np.concatenate([[mu], grad_mu])
    draws = rng.multivariate_normal(mean, cov, size=n)
    f, g = draws[:, 0], draws[:, 1:]
    resid = c[None, :] - 0.5 * params.delta * g @ params.precond.T
    q = multivariate_normal(mean=np.zeros(d), cov=params.delta * params.precond)
    return float(np.mean(np.exp(f + q.logpdf(resid))))


def test_marginal_factor_matches_monte_carlo():
    params = MalaProposalParams.diagonal(0.2, [1.0])
    mu, grad_mu = -1.0, np.array([0.5])
    cov = np.array([[0.3, 0.1], [0.1, 0.4]])
    c = np.array([0.3])
    mc = _mc_marginal_factor(mu, grad_mu, cov, c, params, 1_000_000, seed=5)
    closed = math.exp(mala_marginal_log_factor(mu, grad_mu, cov, c, params)
                      + proposal_log_density(c, params))
    assert closed == pytest.approx(mc, rel=0.02)


def test_marginal_factor_random_configs_match_monte_carlo():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        params = MalaProposalParams.diagonal(rng.uniform(0.1, 0.5),
                                             rng.uniform(0.5, 1.5, size=d))
        mu = rng.uniform(-2, 0)
        grad_mu = rng.uniform(-1, 1, size=d)
        a = 0.4 * rng.standard_normal((d + 1, d + 1))
        cov = a @ a.T
        c = rng.uniform(-0.5, 0.5, size=d)
        mc = _mc_marginal_factor(mu, grad_mu, cov, c, params, 400_000,
                                 seed=int(rng.integers(1 << 30)))
        closed = math.exp(mala_marginal_log_factor(mu, grad_mu, cov, c, params)
                          + proposal_log_density(c, params))
        assert closed == pytest.approx(mc, rel=0.02)


# ---------------------------------------------------------------------------
# Langevin stages

def _joint_pred(mean, grad, cov):
    cov = np.asarray(cov, float)
    return SurrogatePrediction(mean=mean, variance=float(cov[0, 0]),
                               grad_mean=np.asarray(grad, float), joint_cov=cov)


def test_stage1_mala_zero_uncertainty_equals_plugin_ratio():
    params = MalaProposalParams.diagonal(0.3, [1.0, 1.0])
    cur = snapshot([0.0, 0.0], ll=-1.0, lp=-0.1, grad=np.array([0.5, -0.5]))
    theta_star = np.array([0.4, -0.2])
    grad_prior = (np.array([0.1, 0.0]), np.array([0.0, 0.2]))
    mu, grad_mu = -1.4, np.array([0.3, 0.6])
    q = multivariate_normal(mean=np.zeros(2), cov=0.3 * np.eye(2))
    fwd = mala_drift(cur.theta, cur.exact_grad_ll, grad_prior[0], params)
    rev = mala_drift(theta_star, grad_mu, grad_prior[1], params)
    log_alpha1 = stage1_log_alpha_mala(cur, theta_star,
                                       _joint_pred(mu, grad_mu, np.zeros((3, 3))),
                                       -0.2, grad_prior[1], q.logpdf(theta_star - fwd),
                                       params)

    expected = ((mu - 0.2 + q.logpdf(cur.theta - rev))
                - (-1.0 - 0.1 + q.logpdf(theta_star - fwd)))
    assert expected < 0.0
    assert log_alpha1 == pytest.approx(expected, abs=1e-10)


def test_stage1_mala_requires_gradients_and_joint_prediction():
    params = MalaProposalParams.diagonal(0.3, [1.0])
    cur = snapshot([0.0], ll=-1.0, lp=0.0, grad=np.array([0.2]))
    no_grad = SurrogatePrediction(mean=-1.0, variance=0.1, joint_cov=np.zeros((2, 2)))
    scalar_pred = SurrogatePrediction(mean=-1.0, variance=0.1)
    for pred in (no_grad, scalar_pred):
        with pytest.raises(ValueError):
            stage1_log_alpha_mala(cur, [0.5], pred, 0.0, [0.0], -1.0, params)


def test_stage2_mala_perfect_surrogate_accepts_certainly():
    # surrogate already exact at the proposal: stage 1 screens with the
    # exact ratio r itself, so the correction must be a no-op
    params = MalaProposalParams.diagonal(0.4, [1.0])
    cur = snapshot([0.0], ll=-1.0, lp=0.0, grad=np.array([0.8]))
    theta_star = np.array([0.5])
    ll_star, grad_star = -1.3, np.array([-0.4])
    grad_prior_star = np.array([0.0])
    fwd = mala_drift(cur.theta, cur.exact_grad_ll, [0.0], params)
    rev = mala_drift(theta_star, grad_star, grad_prior_star, params)
    log_q_forward = proposal_log_density(theta_star - fwd, params)
    r = ((ll_star + 0.0 + proposal_log_density(cur.theta - rev, params))
         - (cur.exact_ll + cur.log_prior + log_q_forward))
    log_alpha1 = stage1_log_alpha_mala(cur, theta_star,
                                       _joint_pred(ll_star, grad_star, np.zeros((2, 2))),
                                       0.0, grad_prior_star, log_q_forward, params)
    assert log_alpha1 == pytest.approx(min(0.0, r), abs=1e-10)
    assert stage2_log_alpha_mala(r, log_alpha1) == pytest.approx(0.0, abs=1e-10)


def test_stage2_mala_gate_and_minus_inf():
    # r = -inf (no likelihood at the proposal) rejects; NaN or +inf is refused
    assert stage2_log_alpha_mala(-math.inf, -0.3) == -math.inf
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            stage2_log_alpha_mala(bad, -0.3)


def test_state_snapshot_validation():
    with pytest.raises(ValueError):
        snapshot([0.0], ll=math.inf, lp=0.0)
    with pytest.raises(ValueError):
        snapshot([0.0], ll=0.0, lp=math.nan)
    with pytest.raises(ValueError):
        snapshot([0.0], ll=0.0, lp=0.0, grad=np.array([math.inf]))
