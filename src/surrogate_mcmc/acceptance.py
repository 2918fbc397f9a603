"""Acceptance-ratio computations for two-stage surrogate MCMC.

Stage 1 screens a proposal with the surrogate marginalised out of the
acceptance ratio: for a Gaussian predictive value the marginal likelihood
factor is lognormal, contributing exp(mean + variance/2). Stage 2 corrects
with the exact log-likelihood so the composed kernel targets the exact
posterior. All ratios are formed in log domain and every stage function
returns its log acceptance as a plain float:

  * ``stage1_log_alpha_mh`` and ``stage1_log_alpha_mala`` give log alpha_1
    from the current state's snapshot and the surrogate's prediction at the
    proposal; the Langevin screen also takes the forward proposal density
    log q(proposal | current), computed once per move by its caller;
  * ``stage2_log_alpha_mh`` needs only the exact log-likelihood at the
    proposal and the stage-1 prediction;
  * ``stage2_log_alpha_mala`` needs only the one-stage exact log ratio r and
    log alpha_1, the same r a one-stage Langevin chain accepts with.

Both stage-2 rules take the surrogate to be exact at the current state
(its exact value, zero variance), which holds only while the current state
is one of the surrogate's training points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .kernelgp import SurrogatePrediction, _vector


@dataclass(frozen=True)
class StateSnapshot:
    """Exact quantities cached for the current chain state."""

    theta: np.ndarray
    exact_ll: float
    log_prior: float
    exact_grad_ll: np.ndarray | None = None

    def __post_init__(self):
        theta = _vector(self.theta)
        object.__setattr__(self, "theta", theta)
        if not math.isfinite(self.exact_ll):
            raise ValueError("exact_ll must be finite")
        if not math.isfinite(self.log_prior):
            raise ValueError("log_prior must be finite")
        if self.exact_grad_ll is not None:
            g = _vector(self.exact_grad_ll, theta.shape[0])
            if not np.all(np.isfinite(g)):
                raise ValueError("exact_grad_ll must be finite")
            object.__setattr__(self, "exact_grad_ll", g)


@dataclass(frozen=True)
class MalaProposalParams:
    """Langevin proposal: step size ``delta`` and SPD preconditioner ``precond``.

    The proposal is N(theta + 0.5 * delta * precond @ drift, delta * precond).
    """

    delta: float
    precond: np.ndarray
    precond_sqrt: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta <= 0:
            raise ValueError("delta must be finite and positive")
        lam = np.atleast_2d(np.asarray(self.precond, dtype=float))
        sq = np.atleast_2d(np.asarray(self.precond_sqrt, dtype=float))
        if lam.shape[0] != lam.shape[1] or sq.shape != lam.shape:
            raise ValueError("preconditioner blocks must be square and consistent")
        if not np.allclose(sq @ sq.T, lam, atol=1e-10 * max(1.0, float(np.abs(lam).max()))):
            raise ValueError("precond_sqrt @ precond_sqrt.T must reproduce precond")
        object.__setattr__(self, "precond", lam)
        object.__setattr__(self, "precond_sqrt", sq)

    @classmethod
    def from_matrix(cls, delta: float, precond) -> "MalaProposalParams":
        lam = np.atleast_2d(np.asarray(precond, dtype=float))
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise ValueError("precond must be a square matrix")
        if not np.allclose(lam, lam.T, atol=1e-12 * max(1.0, float(np.abs(lam).max()))):
            raise ValueError("precond must be symmetric")
        evals, evecs = np.linalg.eigh(lam)
        if evals.min() <= 0:
            raise ValueError("precond must be positive definite")
        sqrt = (evecs * np.sqrt(evals)) @ evecs.T
        return cls(delta=float(delta), precond=lam, precond_sqrt=sqrt)

    @classmethod
    def diagonal(cls, delta: float, diag) -> "MalaProposalParams":
        diag = _vector(diag)
        if np.any(diag <= 0):
            raise ValueError("diagonal preconditioner entries must be positive")
        return cls(delta=float(delta), precond=np.diag(diag),
                   precond_sqrt=np.diag(np.sqrt(diag)))

    @property
    def dim(self) -> int:
        return self.precond.shape[0]


def _require_finite(name: str, *values) -> None:
    for v in values:
        if isinstance(v, (float, int, np.floating, np.integer)):
            finite = math.isfinite(v)
        else:
            finite = np.all(np.isfinite(np.asarray(v, dtype=float)))
        if not finite:
            raise ValueError(f"non-finite value in {name}: {v!r}")


def lognormal_mean_log(mean: float, variance: float) -> float:
    """log E[exp(X)] for X ~ Normal(mean, variance), i.e. mean + variance / 2."""
    _require_finite("lognormal_mean_log", mean, variance)
    if variance < 0:
        raise ValueError("variance must be non-negative")
    return float(mean) + 0.5 * float(variance)


def proposal_log_density(residual, params: MalaProposalParams) -> float:
    """Log density of N(0, delta * precond) at ``residual``."""
    r = _vector(residual, params.dim)
    chol = np.linalg.cholesky(params.precond)
    w = solve_triangular(chol, r, lower=True, check_finite=False)
    quad = float(w @ w) / params.delta
    logdet = (params.dim * math.log(params.delta)
              + 2.0 * float(np.sum(np.log(np.diag(chol)))))
    return -0.5 * (quad + logdet + params.dim * math.log(2.0 * math.pi))


def mala_drift(theta, grad_ll, grad_log_prior, params: MalaProposalParams) -> np.ndarray:
    """theta + 0.5 * delta * precond @ (grad_ll + grad_log_prior)."""
    theta = _vector(theta, params.dim)
    g = _vector(grad_ll, params.dim) + _vector(grad_log_prior, params.dim)
    return theta + 0.5 * params.delta * (params.precond @ g)


# ---------------------------------------------------------------------------
# random-walk stages

def stage1_log_alpha_mh(current: StateSnapshot, proposal_theta, pred: SurrogatePrediction,
                        proposal_log_prior: float, log_q_ratio: float = 0.0) -> float:
    """Stage-1 log acceptance for a random-walk proposal.

    The surrogate value enters through its lognormal mean, exp(mean + var/2);
    the denominator uses the exact cached quantities of the current state.
    ``log_q_ratio`` is log q(current|proposal) - log q(proposal|current).
    """
    _require_finite("stage1_log_alpha_mh", pred.mean, pred.variance,
                    proposal_log_prior, log_q_ratio)
    return min(0.0, lognormal_mean_log(pred.mean, pred.variance)
               + float(proposal_log_prior) + float(log_q_ratio)
               - current.exact_ll - current.log_prior)


def stage2_log_alpha_mh(proposal_exact_ll: float, pred: SurrogatePrediction) -> float:
    """Stage-2 log acceptance given the exact log-likelihood at the proposal.

    The full second-stage ratio, exact-likelihood ratio times reverse over
    forward stage-1 acceptance, reduces to min(0, exact - mean - var/2) with
    ``pred`` the stage-1 prediction: the prior and proposal terms cancel.
    """
    proposal_exact_ll = float(proposal_exact_ll)
    if math.isnan(proposal_exact_ll) or proposal_exact_ll == math.inf:
        raise ValueError("proposal_exact_ll must not be NaN or +inf")
    return min(0.0, proposal_exact_ll - lognormal_mean_log(pred.mean, pred.variance))


# ---------------------------------------------------------------------------
# Langevin stages

def gaussian_quadratic_expectation(m, cov, w: float, u, smat) -> float:
    """log E[exp(w + u'g - 0.5 g'S g)] for g ~ N(m, K), in closed form.

    Equals w + u'm - 0.5 m'S m + 0.5 (u - S m)'((I + K S)^-1 K)(u - S m)
    - 0.5 log det(I + K S); valid for K positive semi-definite and S PSD.
    """
    m = _vector(m)
    n = m.shape[0]
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    u = _vector(u, n)
    smat = np.atleast_2d(np.asarray(smat, dtype=float))
    if cov.shape != (n, n) or smat.shape != (n, n):
        raise ValueError("covariance and quadratic blocks must be n x n")
    _require_finite("gaussian_quadratic_expectation", m, cov, w, u, smat)
    eye = np.eye(n)
    ks = eye + cov @ smat
    sign, logdet = np.linalg.slogdet(ks)
    if sign <= 0:
        raise ValueError("I + K S must have positive determinant")
    v = u - smat @ m
    middle = np.linalg.solve(ks, cov)
    return (float(w) + float(u @ m) - 0.5 * float(m @ smat @ m)
            + 0.5 * float(v @ middle @ v) - 0.5 * logdet)


def mala_marginal_log_factor(mu: float, grad_mu, joint_cov, c,
                             params: MalaProposalParams) -> float:
    """log E[exp(f) q(theta'| theta* + 0.5 delta precond (g + prior drift))]
    minus log q at the prior-drift-only mean, for (f, g) jointly Gaussian.

    ``c`` is theta' - theta* - 0.5 * delta * precond @ grad_log_prior(theta*).
    Assembled from the Gaussian quadratic-exponential closed form with
    u = [1, c/2] and S = blockdiag(0, delta/4 * precond).
    """
    c = _vector(c, params.dim)
    d = params.dim
    m = np.concatenate([[float(mu)], _vector(grad_mu, d)])
    u = np.concatenate([[1.0], 0.5 * c])
    smat = np.zeros((1 + d, 1 + d))
    smat[1:, 1:] = 0.25 * params.delta * params.precond
    return gaussian_quadratic_expectation(m, joint_cov, 0.0, u, smat)


def stage1_log_alpha_mala(current: StateSnapshot, proposal_theta,
                          joint_pred: SurrogatePrediction, proposal_log_prior: float,
                          grad_prior_star, log_q_forward: float,
                          params: MalaProposalParams) -> float:
    """Stage-1 log acceptance for a Langevin proposal with the joint surrogate
    (value and gradient) marginalised out of the numerator.

    The denominator is deterministic: the current state's exact value and
    the forward proposal density ``log_q_forward``, log q(proposal|current)
    under the drift of the current state's exact gradient.
    ``grad_prior_star`` is grad_log_prior(proposal).
    """
    if joint_pred.grad_mean is None or joint_pred.joint_cov is None:
        raise ValueError("stage 1 for Langevin proposals needs a joint prediction")
    theta_star = _vector(proposal_theta, params.dim)
    grad_prior_star = _vector(grad_prior_star, params.dim)
    _require_finite("stage1_log_alpha_mala", joint_pred.mean, joint_pred.grad_mean,
                    joint_pred.joint_cov, proposal_log_prior, grad_prior_star,
                    log_q_forward)

    c = current.theta - theta_star - 0.5 * params.delta * (params.precond @ grad_prior_star)
    log_num = (float(proposal_log_prior)
               + mala_marginal_log_factor(joint_pred.mean, joint_pred.grad_mean,
                                          joint_pred.joint_cov, c, params)
               + proposal_log_density(c, params))
    log_den = current.exact_ll + current.log_prior + log_q_forward
    return min(0.0, log_num - log_den)


def stage2_log_alpha_mala(exact_log_ratio: float, log_alpha1: float) -> float:
    """Stage-2 log acceptance for a Langevin proposal.

    ``exact_log_ratio`` is r, the one-stage log ratio with exact values and
    gradients at both endpoints; ``log_alpha1`` is the stage-1 result. The
    reverse stage-1 acceptance is min(0, -r): under the same pre-update
    surrogate the current state's quantities are exact with zero variance.
    r = -inf (no likelihood at the proposal) rejects.
    """
    if math.isnan(exact_log_ratio) or exact_log_ratio == math.inf:
        raise ValueError("exact_log_ratio must not be NaN or +inf")
    return min(0.0, exact_log_ratio + min(0.0, -exact_log_ratio) - log_alpha1)
