"""Fixed-size timings of the public ``kernelgp`` operations.

They run on a synthetic ledger drawn from the benchmark seed, so they
isolate the surrogate's kernel cost from changes in the chain's path. The
sizes are those of the package's planning notes: n=300 points in d=5,
scalar mode, and the same points in joint value-gradient mode, where the
factorised matrix is N = n(1+d) = 1800.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from surrogate_mcmc import kernelgp
from surrogate_mcmc.kernelgp import Evaluation, EvaluationLedger, KernelHyper

N_POINTS = 300
DIM = 5
LENGTHSCALE = 0.8
SIGNAL_VARIANCE = 10.0
QUERIES = 200


def synthetic_ledger(seed: int):
    """``N_POINTS + 1`` evaluations of a Gaussian log-density, with
    gradients, at standard-normal points, plus query points."""
    rng = np.random.default_rng([seed, 2109])
    x = rng.standard_normal((N_POINTS + 1, DIM))
    centre = 0.3 * rng.standard_normal(DIM)
    evs = [Evaluation(theta=t, log_lik=-0.5 * float((t - centre) @ (t - centre)),
                      grad=-(t - centre)) for t in x]
    queries = rng.standard_normal((QUERIES, DIM))
    return evs, queries


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run_probes(seed: int) -> dict:
    """Median milliseconds per call, keyed by per-layer metric name."""
    evs, queries = synthetic_ledger(seed)
    base = EvaluationLedger(evs[:N_POINTS])
    hyper = KernelHyper(lengthscales=np.full(DIM, LENGTHSCALE),
                        signal_variance=SIGNAL_VARIANCE)
    prior_mean = float(np.mean([ev.log_lik for ev in evs]))
    out = {}
    for mode, joint, repeats in (("scalar", False, 15), ("joint", True, 5)):
        suffix = f"_ms.{mode}_n{N_POINTS}_d{DIM}"
        fit = lambda: kernelgp.fit(base, hyper, prior_mean, gradient_mode=joint)
        out["kernelgp.probe.fit" + suffix] = _median_ms(fit, repeats)
        gp = fit()
        smaller = kernelgp.fit(EvaluationLedger(evs[:N_POINTS - 1]), hyper, prior_mean,
                               gradient_mode=joint)
        out["kernelgp.probe.append" + suffix] = _median_ms(
            lambda: kernelgp.append(smaller, evs[N_POINTS - 1]), 3 * repeats)
        shifts = iter(range(1, 10 ** 6))
        out["kernelgp.probe.recentre" + suffix] = _median_ms(
            lambda: gp.with_prior_mean(prior_mean + next(shifts)), 3 * repeats)
        predict = kernelgp.predict_joint if joint else kernelgp.predict
        rows = iter(queries)
        out[f"kernelgp.probe.{predict.__name__}" + suffix] = _median_ms(
            lambda: predict(gp, next(rows)), QUERIES)
    return out
