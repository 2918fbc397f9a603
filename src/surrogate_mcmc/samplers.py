"""Chain drivers: random-walk and Langevin Metropolis-Hastings, each run
either with one exact evaluation per iteration or in two stages that screen
proposals through the surrogate before spending an exact evaluation.

A proposal (``_RandomWalk``, ``_Langevin``) supplies the move, the exact
evaluation and the acceptance ratios; ``_run_exact`` and ``_run_two_stage``
are the only chain loops. A proposal's ``stage1`` returns log alpha_1 as a
float with the context its ``stage2`` needs: the surrogate prediction for
the random walk, which ``stage2_log_alpha_mh`` corrects with the exact
log-likelihood; the forward pair (prior gradient at the proposal, forward
proposal density) for the Langevin move, from which ``stage2`` forms the
same exact log ratio r a one-stage chain accepts with and hands r and
log alpha_1 to ``stage2_log_alpha_mala``. The stage functions are called
through this module's namespace. The two-stage loop keeps these rules:
  * the surrogate's constant prior mean is refreshed to the exact
    log-likelihood of the current state every time the state changes;
  * exact quantities for the current state are always served from its
    state snapshot, never re-predicted;
  * every stage-1 acceptance costs exactly one exact evaluation; a finite,
    new one below ``ledger_cap`` is appended to the surrogate, the only store
    of training data, and one the kernel cannot factorise is skipped and counted;
  * kernel hyperparameters are re-optimised every ``hyper_update_every``
    surrogate growths during burn-in and frozen afterwards; a refit whose
    hyperparameters the kernel cannot factorise keeps the current surrogate
    and is counted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernelgp
from .acceptance import (MalaProposalParams, StateSnapshot, mala_drift,
                         proposal_log_density, stage1_log_alpha_mala,
                         stage1_log_alpha_mh, stage2_log_alpha_mala,
                         stage2_log_alpha_mh)
from .kernelgp import Evaluation, EvaluationLedger, KernelHyper, _vector
from .targets import CapabilityError, TargetInstance

_INIT_REDRAW_LIMIT = 20


class InitializationError(RuntimeError):
    """Chain could not be started from the supplied point."""


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs shared by all drivers; Langevin runs also need ``mala``."""

    proposal_scales: np.ndarray
    n_iters: int = 2500
    n_burnin: int = 500
    mala: MalaProposalParams | None = None
    gp_init_count: int = 3
    hyper_update_every: int = 25
    hyper_opt_budget: int = 50
    ledger_cap: int | None = None
    init_hyper: KernelHyper | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "proposal_scales",
                           _vector(self.proposal_scales))
        if np.any(self.proposal_scales <= 0) or not np.all(np.isfinite(self.proposal_scales)):
            raise ValueError("proposal_scales must be finite and positive")
        if self.n_iters <= 0:
            raise ValueError("n_iters must be positive")
        if not 0 <= self.n_burnin < self.n_iters:
            raise ValueError("need 0 <= n_burnin < n_iters")
        if self.gp_init_count < 1:
            raise ValueError("gp_init_count must be at least 1")
        if self.hyper_update_every < 1:
            raise ValueError("hyper_update_every must be at least 1")
        if self.hyper_opt_budget < 0:
            raise ValueError("hyper_opt_budget must be non-negative")
        if self.ledger_cap is not None and self.ledger_cap < self.gp_init_count:
            raise ValueError("ledger_cap below gp_init_count")

    @property
    def dim(self) -> int:
        return self.proposal_scales.shape[0]


@dataclass
class ChainTrace:
    """Per-iteration record of one chain plus run-level summary fields.

    ``thetas[k]`` is the state after iteration ``k``. For two-stage runs
    ``stage2_log_alpha`` is NaN on iterations stage 1 rejected; baselines
    mirror their single exact decision into both stages. ``skipped_appends``
    counts exact evaluations left out of the surrogate because appending
    them made the kernel matrix singular; ``skipped_refits`` counts
    hyperparameter refits dropped because the refitted kernel matrix was
    singular.
    """

    thetas: np.ndarray
    stage1_log_alpha: np.ndarray
    stage1_accepted: np.ndarray
    stage2_log_alpha: np.ndarray
    stage2_accepted: np.ndarray
    full_eval: np.ndarray
    n_burnin: int
    two_stage: bool
    algo: str
    seed: int
    gp_init_evals: int
    ledger_size: int
    wall_clock_seconds: float
    skipped_appends: int = 0
    skipped_refits: int = 0

    @property
    def n_iters(self) -> int:
        return self.thetas.shape[0]

    @property
    def dim(self) -> int:
        return self.thetas.shape[1]

    @property
    def n_full_evals(self) -> int:
        """Exact evaluations attributable to the run: per-iteration ones plus
        the surrogate's initial design (baselines: one per iteration)."""
        return int(self.full_eval.sum()) + self.gp_init_evals

    def post_burnin(self) -> np.ndarray:
        return self.thetas[self.n_burnin:]


class _TraceBuilder:
    def __init__(self, n_iters: int, dim: int):
        self.thetas = np.empty((n_iters, dim))
        self.s1_log_alpha = np.empty(n_iters)
        self.s1_accepted = np.zeros(n_iters, dtype=bool)
        self.s2_log_alpha = np.full(n_iters, np.nan)
        self.s2_accepted = np.zeros(n_iters, dtype=bool)
        self.full_eval = np.zeros(n_iters, dtype=bool)

    def record(self, k, theta, s1a, s1acc, s2a, s2acc, evaluated):
        self.thetas[k] = theta
        self.s1_log_alpha[k] = s1a
        self.s1_accepted[k] = s1acc
        self.s2_log_alpha[k] = s2a
        self.s2_accepted[k] = s2acc
        self.full_eval[k] = evaluated

    def finish(self, config: SamplerConfig, algo: str, two_stage: bool,
               gp_init_evals: int, ledger_size: int, started: float,
               skipped_appends: int = 0, skipped_refits: int = 0) -> ChainTrace:
        return ChainTrace(thetas=self.thetas, stage1_log_alpha=self.s1_log_alpha,
                          stage1_accepted=self.s1_accepted,
                          stage2_log_alpha=self.s2_log_alpha,
                          stage2_accepted=self.s2_accepted, full_eval=self.full_eval,
                          n_burnin=config.n_burnin, two_stage=two_stage, algo=algo,
                          seed=config.seed, gp_init_evals=gp_init_evals,
                          ledger_size=ledger_size,
                          wall_clock_seconds=time.perf_counter() - started,
                          skipped_appends=skipped_appends,
                          skipped_refits=skipped_refits)


def _mk_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) % (1 << 64)))


def _accept(rng: np.random.Generator, log_alpha: float) -> bool:
    u = rng.uniform()
    if u == 0.0:
        return log_alpha > -math.inf
    return math.log(u) < log_alpha


def _start_state(target: TargetInstance, theta0, *, with_grad: bool) -> StateSnapshot:
    theta0 = _vector(theta0, target.dim)
    log_prior = target.log_prior(theta0)
    if not math.isfinite(log_prior):
        raise InitializationError("starting point has zero prior density")
    if with_grad:
        ll, grad = target.log_likelihood_and_grad(theta0)
    else:
        ll, grad = target.log_likelihood(theta0), None
    if not math.isfinite(ll):
        raise InitializationError("non-finite log-likelihood at the starting point")
    return StateSnapshot(theta=theta0, exact_ll=ll, log_prior=log_prior,
                         exact_grad_ll=grad)


# ---------------------------------------------------------------------------
# surrogate initialisation

def init_ledger(target: TargetInstance, theta0, config: SamplerConfig,
                gradient_mode: bool = False,
                rng: np.random.Generator | None = None):
    """Exact evaluations at ``theta0`` plus ``gp_init_count - 1`` perturbed
    points drawn from the proposal centred there.

    Draws that repeat an existing point are retried once; draws landing on a
    non-finite log-likelihood are redrawn a bounded number of times. Returns
    ``(ledger, n_evals)`` where ``n_evals`` counts every exact evaluation
    spent, including discarded ones.
    """
    if rng is None:
        rng = _mk_rng(config.seed)
    theta0 = _vector(theta0, target.dim)
    state = _start_state(target, theta0, with_grad=gradient_mode)
    ledger = EvaluationLedger([Evaluation(theta=theta0, log_lik=state.exact_ll,
                                          grad=state.exact_grad_ll)])
    n_evals = 1
    if config.mala is not None and gradient_mode:
        scale_noise = lambda z: math.sqrt(config.mala.delta) * (config.mala.precond_sqrt @ z)
    else:
        scale_noise = lambda z: config.proposal_scales * z
    for _ in range(config.gp_init_count - 1):
        entry = None
        duplicate_retries = 0
        for _attempt in range(_INIT_REDRAW_LIMIT):
            point = theta0 + scale_noise(rng.standard_normal(target.dim))
            if ledger.position(point) is not None:
                duplicate_retries += 1
                if duplicate_retries > 1:
                    raise InitializationError("repeated duplicate initial design point")
                continue
            if gradient_mode:
                ll, grad = target.log_likelihood_and_grad(point)
            else:
                ll, grad = target.log_likelihood(point), None
            n_evals += 1
            if math.isfinite(ll):
                entry = Evaluation(theta=point, log_lik=ll, grad=grad)
                break
        if entry is None:
            raise InitializationError("could not find finite initial design points")
        ledger = ledger.with_entry(entry)
    return ledger, n_evals


def _default_init_hyper(config: SamplerConfig, ledger: EvaluationLedger) -> KernelHyper:
    values = ledger.values()
    signal = max(float(np.var(values)), 1.0)
    return KernelHyper(lengthscales=2.0 * config.proposal_scales,
                       signal_variance=signal)


def _check_dims(target: TargetInstance, config: SamplerConfig) -> None:
    if config.dim != target.dim:
        raise ValueError(f"proposal_scales dimension {config.dim} does not match "
                         f"target dimension {target.dim}")


# ---------------------------------------------------------------------------
# proposals

class _RandomWalk:
    """Gaussian random walk with per-dimension ``proposal_scales``."""

    gradient_mode = False

    def __init__(self, target: TargetInstance, config: SamplerConfig):
        _check_dims(target, config)
        self.target = target
        self.scales = config.proposal_scales

    def propose(self, rng: np.random.Generator, state: StateSnapshot):
        """The proposed point and the context later steps need from the move."""
        return state.theta + self.scales * rng.standard_normal(self.target.dim), None

    def evaluate(self, theta):
        return self.target.log_likelihood(theta), None

    def exact_log_alpha(self, state, proposal, ctx, log_prior, ll, grad):
        """One-stage log acceptance; ``None`` rejects without a uniform draw."""
        return min(0.0, (ll + log_prior) - (state.exact_ll + state.log_prior))

    def stage1(self, gp, state, proposal, ctx, log_prior):
        """Stage-1 log acceptance and the context stage 2 needs."""
        pred = kernelgp.predict(gp, proposal)
        return stage1_log_alpha_mh(state, proposal, pred, log_prior), pred

    def stage2(self, state, proposal, pred, log_prior, ll, grad, log_alpha1):
        return stage2_log_alpha_mh(ll, pred)


class _Langevin:
    """Preconditioned Langevin move drifted by the current state's exact
    gradient. The move's context is its forward drift mean. Stage 1, or the
    one-stage ratio, turns it into the forward pair (prior gradient at the
    proposal, log q(proposal | state)), which stage 2 reuses."""

    gradient_mode = True

    def __init__(self, target: TargetInstance, config: SamplerConfig):
        _check_dims(target, config)
        if config.mala is None:
            raise ValueError("config.mala is required for Langevin drivers")
        if config.mala.dim != target.dim:
            raise ValueError("mala preconditioner dimension does not match target")
        if not target.has_gradient:
            raise CapabilityError(f"target {target.name} provides no gradients; "
                                  "Langevin drivers need them")
        self.target = target
        self.params = config.mala
        self.sqrt_delta = math.sqrt(self.params.delta)
        self._prior_grad_of = (None, None)

    def _grad_prior(self, state: StateSnapshot) -> np.ndarray:
        """Prior gradient at the state, computed once per state."""
        cached_state, grad = self._prior_grad_of
        if cached_state is not state:
            grad = self.target.grad_log_prior(state.theta)
            self._prior_grad_of = (state, grad)
        return grad

    def propose(self, rng: np.random.Generator, state: StateSnapshot):
        params = self.params
        forward_mean = mala_drift(state.theta, state.exact_grad_ll,
                                  self._grad_prior(state), params)
        proposal = forward_mean + self.sqrt_delta * (params.precond_sqrt
                                                     @ rng.standard_normal(self.target.dim))
        return proposal, forward_mean

    def evaluate(self, theta):
        return self.target.log_likelihood_and_grad(theta)

    def _forward(self, proposal, forward_mean):
        """(grad_log_prior(proposal), log q(proposal | state)) for one move."""
        return (self.target.grad_log_prior(proposal),
                proposal_log_density(proposal - forward_mean, self.params))

    def _exact_log_ratio(self, state, proposal, log_prior, ll, grad,
                         grad_prior_star, log_q_forward) -> float:
        """One-stage exact log ratio r of the move, from its forward pair."""
        reverse_mean = mala_drift(proposal, grad, grad_prior_star, self.params)
        return ((ll + log_prior + proposal_log_density(state.theta - reverse_mean, self.params))
                - (state.exact_ll + state.log_prior + log_q_forward))

    def exact_log_alpha(self, state, proposal, forward_mean, log_prior, ll, grad):
        if not math.isfinite(log_prior) or ll == -math.inf:
            return None
        return min(0.0, self._exact_log_ratio(state, proposal, log_prior, ll, grad,
                                              *self._forward(proposal, forward_mean)))

    def stage1(self, gp, state, proposal, forward_mean, log_prior):
        forward = self._forward(proposal, forward_mean)
        joint = kernelgp.predict_joint(gp, proposal)
        return (stage1_log_alpha_mala(state, proposal, joint, log_prior, *forward,
                                      self.params), forward)

    def stage2(self, state, proposal, forward, log_prior, ll, grad, log_alpha1):
        r = (-math.inf if ll == -math.inf
             else self._exact_log_ratio(state, proposal, log_prior, ll, grad, *forward))
        return stage2_log_alpha_mala(r, log_alpha1)


def run_mh(target: TargetInstance, config: SamplerConfig, theta0) -> ChainTrace:
    """Random-walk Metropolis-Hastings with one exact evaluation per iteration."""
    return _run_exact(_RandomWalk(target, config), config, theta0, "mh")


def run_mala(target: TargetInstance, config: SamplerConfig, theta0) -> ChainTrace:
    """Langevin proposals with the exact-gradient drift and exact correction."""
    return _run_exact(_Langevin(target, config), config, theta0, "mala")


def run_gp_mh(target: TargetInstance, config: SamplerConfig, theta0) -> ChainTrace:
    """Random-walk proposals screened through the scalar surrogate."""
    return _run_two_stage(_RandomWalk(target, config), config, theta0, "gp-mh")


def run_gp_mala(target: TargetInstance, config: SamplerConfig, theta0) -> ChainTrace:
    """Langevin proposals screened through the joint value-gradient surrogate,
    which marginalises the value and gradient uncertainty at the proposal."""
    return _run_two_stage(_Langevin(target, config), config, theta0, "gp-mala")


# ---------------------------------------------------------------------------
# the two loops

def _run_exact(kind, config: SamplerConfig, theta0, algo: str) -> ChainTrace:
    """One exact evaluation and one accept step per iteration; the decision
    is mirrored into both stage columns of the trace."""
    target = kind.target
    rng = _mk_rng(config.seed)
    state = _start_state(target, theta0, with_grad=kind.gradient_mode)
    tr = _TraceBuilder(config.n_iters, target.dim)
    started = time.perf_counter()
    for k in range(config.n_iters):
        proposal, ctx = kind.propose(rng, state)
        log_prior = target.log_prior(proposal)
        ll, grad = kind.evaluate(proposal)
        log_alpha = kind.exact_log_alpha(state, proposal, ctx, log_prior, ll, grad)
        if log_alpha is None:
            log_alpha, accepted = -math.inf, False
        else:
            accepted = _accept(rng, log_alpha)
        if accepted:
            state = StateSnapshot(theta=proposal, exact_ll=ll, log_prior=log_prior,
                                  exact_grad_ll=grad)
        tr.record(k, state.theta, log_alpha, accepted, log_alpha, accepted, True)
    return tr.finish(config, algo, False, 0, 0, started)


def _run_two_stage(kind, config: SamplerConfig, theta0, algo: str) -> ChainTrace:
    """Screen each proposal through the surrogate; evaluate and correct the
    survivors exactly."""
    target = kind.target
    gradient_mode = kind.gradient_mode
    rng = _mk_rng(config.seed)
    ledger, init_evals = init_ledger(target, theta0, config,
                                     gradient_mode=gradient_mode, rng=rng)
    first = ledger[0]
    state = StateSnapshot(theta=first.theta, exact_ll=first.log_lik,
                          log_prior=target.log_prior(first.theta),
                          exact_grad_ll=first.grad)
    hyper = config.init_hyper or _default_init_hyper(config, ledger)
    gp = kernelgp.fit(ledger, hyper, prior_mean=state.exact_ll,
                      gradient_mode=gradient_mode)
    tr = _TraceBuilder(config.n_iters, target.dim)
    started = time.perf_counter()
    appends_since_opt = 0
    skipped_appends = skipped_refits = 0
    for k in range(config.n_iters):
        gp = gp.with_prior_mean(state.exact_ll)
        proposal, ctx = kind.propose(rng, state)
        log_prior = target.log_prior(proposal)
        if not math.isfinite(log_prior):
            tr.record(k, state.theta, -math.inf, False, np.nan, False, False)
            continue
        log_alpha1, ctx = kind.stage1(gp, state, proposal, ctx, log_prior)
        if not _accept(rng, log_alpha1):
            tr.record(k, state.theta, log_alpha1, False, np.nan, False, False)
            continue
        ll, grad = kind.evaluate(proposal)
        try:
            grew = _maybe_append(gp, config, proposal, ll, grad)
        except kernelgp.IllConditionedKernelError:
            grew = None
            skipped_appends += 1
        if grew is not None:
            gp = grew
            appends_since_opt += 1
        log_alpha2 = kind.stage2(state, proposal, ctx, log_prior, ll, grad, log_alpha1)
        accepted2 = _accept(rng, log_alpha2)
        if accepted2:
            state = StateSnapshot(theta=proposal, exact_ll=ll, log_prior=log_prior,
                                  exact_grad_ll=grad)
        tr.record(k, state.theta, log_alpha1, True, log_alpha2, accepted2, True)
        if k < config.n_burnin and appends_since_opt >= config.hyper_update_every:
            hyper = kernelgp.optimize_hypers(gp.data, gp.hyper, state.exact_ll,
                                             config.hyper_opt_budget,
                                             gradient_mode=gradient_mode)
            try:
                gp = kernelgp.fit(gp.data, hyper, prior_mean=state.exact_ll,
                                  gradient_mode=gradient_mode)
            except kernelgp.IllConditionedKernelError:
                skipped_refits += 1
            appends_since_opt = 0
    return tr.finish(config, algo, True, init_evals, gp.n_train, started,
                     skipped_appends, skipped_refits)


def _maybe_append(gp, config: SamplerConfig, theta, ll: float, grad):
    """The surrogate grown by a finite, new evaluation below the cap, else
    ``None``; ``gp`` itself is never changed."""
    if not math.isfinite(ll):
        return None
    if config.ledger_cap is not None and gp.n_train >= config.ledger_cap:
        return None
    if gp.data.position(theta) is not None:
        return None
    return kernelgp.append(gp, Evaluation(theta=theta, log_lik=ll, grad=grad))
