"""Chain summary metrics: acceptance rate, effective sample size, expected
square jumping distance, evaluation fraction, squared error of the posterior
mean, and the windowed stage-1 vs stage-2 acceptance gap."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .samplers import ChainTrace


class DegenerateChainError(ValueError):
    """Chain has no variation, so autocorrelation time is undefined."""


def acceptance_rate(trace: ChainTrace) -> float:
    """Fraction of post-burn-in iterations whose final decision was accept."""
    accepted = trace.stage2_accepted[trace.n_burnin:]
    if accepted.size == 0:
        raise ValueError("no post-burn-in iterations")
    return float(accepted.mean())


def ess(chain) -> float:
    """Effective sample size N / (1 + 2 sum rho_k) of a scalar chain.

    Empirical autocorrelations are computed by FFT and truncated with the
    initial-positive-sequence rule: consecutive pairs rho_{2m} + rho_{2m+1}
    are summed while positive and dropped from the first non-positive pair on.
    """
    x = np.asarray(chain, dtype=float)
    if x.ndim != 1:
        raise ValueError("ess expects a scalar chain")
    n = x.shape[0]
    if n < 10:
        raise ValueError("chain too short for an autocorrelation estimate")
    x = x - x.mean()
    var0 = float(x @ x) / n
    if var0 == 0.0 or not math.isfinite(var0):
        raise DegenerateChainError("constant chain has no effective sample size")
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n] / n
    rho = acov / acov[0]
    # tau = -1 + 2 * sum of leading positive pair sums (rho_0 included)
    tau = -1.0
    m = 0
    while 2 * m + 1 < n:
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 1
    tau = max(tau, 1e-8)
    return n / tau


def esjd(chain) -> float:
    """Mean squared Euclidean jump between consecutive states."""
    x = np.asarray(chain, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 2:
        raise ValueError("need at least two states")
    steps = np.diff(x, axis=0)
    return float(np.mean(np.sum(steps * steps, axis=1)))


def sq_distance(posterior_mean, true_params) -> float:
    a = np.asarray(posterior_mean, dtype=float)
    b = np.asarray(true_params, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    d = a - b
    return float(d @ d)


def alpha_gap_series(trace: ChainTrace, window: int = 100) -> list[tuple[int, float]]:
    """Windowed means of |exp(stage-1 log alpha) - exp(stage-2 log alpha)|.

    Only iterations that passed stage 1 contribute; windows are indexed by
    iteration number (burn-in included) and empty windows are skipped.
    """
    if not trace.two_stage:
        raise ValueError("alpha gap is defined for two-stage traces only")
    if window < 1:
        raise ValueError("window must be positive")
    idx = np.flatnonzero(trace.stage1_accepted)
    gaps = np.abs(np.exp(trace.stage1_log_alpha[idx])
                  - np.exp(trace.stage2_log_alpha[idx]))
    series = []
    for w in range(trace.n_iters // window + 1):
        mask = (idx >= w * window) & (idx < (w + 1) * window)
        if mask.any():
            series.append((w, float(gaps[mask].mean())))
    return series


@dataclass
class MetricsReport:
    """One chain's summary row plus the acceptance-gap series."""

    acceptance_rate: float
    ess: np.ndarray
    esjd: float
    eval_pct: float
    sd: float
    alpha_gap_series: list = field(default_factory=list)
    n_full_evals: int = 0
    n_iters: int = 0
    n_burnin: int = 0
    algo: str = ""
    seed: int = 0
    wall_clock_seconds: float = 0.0
    skipped_appends: int = 0
    skipped_refits: int = 0

    def to_dict(self) -> dict:
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row["ess"] = [float(v) for v in np.atleast_1d(self.ess)]
        row["alpha_gap_series"] = [[int(w), float(g)] for w, g in self.alpha_gap_series]
        return row


def build_metrics(trace: ChainTrace, true_params, *, eval_denominator: int | None = None,
                  gap_window: int = 100) -> MetricsReport:
    """Assemble the full report for one chain.

    ``eval_denominator`` sets the iteration count the evaluation fraction is
    taken against; the default is the trace's total iteration count, burn-in
    included. Per-dimension ESS is capped at the post-burn-in sample count.
    """
    post = trace.post_burnin()
    n_post = post.shape[0]
    ess_vec = np.array([min(ess(post[:, j]), float(n_post))
                        for j in range(trace.dim)])
    denom = trace.n_iters if eval_denominator is None else int(eval_denominator)
    if denom <= 0:
        raise ValueError("eval_denominator must be positive")
    gap = alpha_gap_series(trace, gap_window) if trace.two_stage else []
    return MetricsReport(
        acceptance_rate=acceptance_rate(trace),
        ess=ess_vec,
        esjd=esjd(post),
        eval_pct=100.0 * trace.n_full_evals / denom,
        sd=sq_distance(post.mean(axis=0), true_params),
        alpha_gap_series=gap,
        n_full_evals=trace.n_full_evals,
        n_iters=trace.n_iters,
        n_burnin=trace.n_burnin,
        algo=trace.algo,
        seed=trace.seed,
        wall_clock_seconds=trace.wall_clock_seconds,
        skipped_appends=trace.skipped_appends,
        skipped_refits=trace.skipped_refits,
    )


def aggregate_metrics(metrics: list[dict]) -> dict:
    """Mean and median over replicates of ``MetricsReport.to_dict()`` rows;
    ESS is first averaged over dimensions."""
    if not metrics:
        raise ValueError("no reports to aggregate")
    rows = {
        "acceptance_rate": [m["acceptance_rate"] for m in metrics],
        "ess": [float(np.mean(m["ess"])) for m in metrics],
        "esjd": [m["esjd"] for m in metrics],
        "eval_pct": [m["eval_pct"] for m in metrics],
        "sd": [m["sd"] for m in metrics],
        "wall_clock_seconds": [m["wall_clock_seconds"] for m in metrics],
    }
    return {
        "n_replicates": len(metrics),
        "mean": {k: float(np.mean(v)) for k, v in rows.items()},
        "median": {k: float(np.median(v)) for k, v in rows.items()},
    }
