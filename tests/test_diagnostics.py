"""Tests for chain summary metrics against hand-computed and sampled oracles."""

import math

import numpy as np
import pytest

from surrogate_mcmc.diagnostics import (
    DegenerateChainError,
    MetricsReport,
    acceptance_rate,
    aggregate_metrics,
    alpha_gap_series,
    build_metrics,
    esjd,
    ess,
    sq_distance,
)
from surrogate_mcmc.samplers import ChainTrace


def make_trace(thetas, *, n_burnin=0, two_stage=True, s1_log_alpha=None,
               s1_accepted=None, s2_log_alpha=None, s2_accepted=None,
               full_eval=None, gp_init_evals=0, algo="gp-mh", seed=0):
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    n = thetas.shape[0]
    if s1_accepted is None:
        s1_accepted = np.ones(n, dtype=bool)
    if s1_log_alpha is None:
        s1_log_alpha = np.zeros(n)
    if s2_accepted is None:
        s2_accepted = np.asarray(s1_accepted, dtype=bool).copy()
    if s2_log_alpha is None:
        s2_log_alpha = np.where(s1_accepted, 0.0, np.nan)
    if full_eval is None:
        full_eval = np.asarray(s1_accepted, dtype=bool).copy()
    return ChainTrace(
        thetas=thetas,
        stage1_log_alpha=np.asarray(s1_log_alpha, dtype=float),
        stage1_accepted=np.asarray(s1_accepted, dtype=bool),
        stage2_log_alpha=np.asarray(s2_log_alpha, dtype=float),
        stage2_accepted=np.asarray(s2_accepted, dtype=bool),
        full_eval=np.asarray(full_eval, dtype=bool),
        n_burnin=n_burnin, two_stage=two_stage, algo=algo, seed=seed,
        gp_init_evals=gp_init_evals, ledger_size=gp_init_evals,
        wall_clock_seconds=0.0)


# ---------------------------------------------------------------------------
# acceptance rate

def test_acceptance_rate_post_burnin_only():
    tr = make_trace(np.arange(4.0), n_burnin=2,
                    s2_accepted=np.array([True, True, False, True]))
    assert acceptance_rate(tr) == 0.5


def test_acceptance_rate_empty_window():
    tr = make_trace(np.arange(3.0), n_burnin=3)
    with pytest.raises(ValueError, match="post-burn-in"):
        acceptance_rate(tr)


# ---------------------------------------------------------------------------
# effective sample size

def test_ess_iid_chain():
    x = np.random.default_rng(42).standard_normal(2000)
    e = ess(x)
    assert 1600.0 <= e <= 2400.0


def test_ess_ar1_chain():
    # AR(1) with rho = 0.5 has autocorrelation time (1+rho)/(1-rho) = 3
    rng = np.random.default_rng(7)
    n = 5000
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = 0.5 * x[t - 1] + rng.standard_normal()
    e = ess(x)
    assert abs(e - n / 3.0) < 0.2 * (n / 3.0)


def test_ess_constant_chain():
    with pytest.raises(DegenerateChainError):
        ess(np.ones(100))


def test_ess_short_chain():
    with pytest.raises(ValueError, match="too short"):
        ess(np.arange(5.0))


def test_ess_requires_scalar_chain():
    with pytest.raises(ValueError, match="scalar"):
        ess(np.zeros((50, 2)))


def test_ess_affine_invariance():
    x = np.random.default_rng(3).standard_normal(500)
    assert ess(3.0 * x - 7.0) == pytest.approx(ess(x), rel=1e-10)


# ---------------------------------------------------------------------------
# expected squared jump distance

def test_esjd_hand_values():
    assert esjd([0.0, 1.0, 3.0]) == pytest.approx(2.5, rel=1e-14)
    assert esjd(np.zeros(10)) == 0.0
    alt = np.tile([1.0, -1.0], 5)
    assert esjd(alt) == pytest.approx(4.0, rel=1e-14)


def test_esjd_multidim():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
    assert esjd(x) == pytest.approx(1.5, rel=1e-14)


def test_esjd_translation_invariance():
    x = np.random.default_rng(0).standard_normal((50, 3))
    assert esjd(x + 11.0) == pytest.approx(esjd(x), rel=1e-10)


def test_esjd_needs_two_states():
    with pytest.raises(ValueError):
        esjd(np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# squared distance of the posterior mean

def test_sq_distance_hand_values():
    assert sq_distance([3.0, 4.0], [0.0, 0.0]) == 25.0
    assert sq_distance([0.12], [0.14]) == pytest.approx(4e-4, rel=1e-10)
    assert sq_distance([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_sq_distance_shape_mismatch():
    with pytest.raises(ValueError):
        sq_distance([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# stage acceptance gap

def test_alpha_gap_single_window():
    s1_acc = np.zeros(10, dtype=bool)
    s1_acc[[2, 7]] = True
    s1 = np.full(10, -5.0)
    s2 = np.full(10, np.nan)
    s1[2], s2[2] = math.log(0.5), math.log(0.3)   # gap 0.2
    s1[7], s2[7] = math.log(0.9), math.log(0.5)   # gap 0.4
    tr = make_trace(np.arange(10.0), s1_log_alpha=s1, s1_accepted=s1_acc,
                    s2_log_alpha=s2, s2_accepted=s1_acc)
    series = alpha_gap_series(tr, window=100)
    assert len(series) == 1
    w, g = series[0]
    assert w == 0
    assert g == pytest.approx(0.3, rel=1e-12)


def test_alpha_gap_windowing_by_iteration():
    s1_acc = np.zeros(10, dtype=bool)
    s1_acc[[1, 7]] = True
    s1 = np.where(s1_acc, math.log(0.8), -9.0)
    s2 = np.where(s1_acc, math.log(0.6), np.nan)
    tr = make_trace(np.arange(10.0), s1_log_alpha=s1, s1_accepted=s1_acc,
                    s2_log_alpha=s2, s2_accepted=s1_acc)
    series = alpha_gap_series(tr, window=5)
    assert [w for w, _ in series] == [0, 1]
    for _, g in series:
        assert g == pytest.approx(0.2, rel=1e-12)


def test_alpha_gap_equal_stages_is_zero():
    tr = make_trace(np.arange(20.0), s1_log_alpha=np.full(20, math.log(0.7)),
                    s2_log_alpha=np.full(20, math.log(0.7)))
    series = alpha_gap_series(tr, window=10)
    assert all(g == pytest.approx(0.0, abs=1e-15) for _, g in series)


def test_alpha_gap_no_stage1_acceptances():
    tr = make_trace(np.zeros(10), s1_accepted=np.zeros(10, dtype=bool),
                    s2_accepted=np.zeros(10, dtype=bool))
    assert alpha_gap_series(tr) == []


def test_alpha_gap_requires_two_stage():
    tr = make_trace(np.arange(10.0), two_stage=False, algo="mh")
    with pytest.raises(ValueError, match="two-stage"):
        alpha_gap_series(tr)


def test_alpha_gap_window_validation():
    tr = make_trace(np.arange(10.0))
    with pytest.raises(ValueError, match="window"):
        alpha_gap_series(tr, window=0)


# ---------------------------------------------------------------------------
# report assembly

def _metric_trace(n=60, n_burnin=20):
    rng = np.random.default_rng(1)
    thetas = rng.standard_normal((n, 2))
    return make_trace(thetas, n_burnin=n_burnin)


def test_build_metrics_shapes_and_denominator():
    tr = _metric_trace()
    rep = build_metrics(tr, np.zeros(2))
    assert rep.ess.shape == (2,)
    assert rep.n_iters == 60
    assert rep.eval_pct == pytest.approx(100.0 * tr.n_full_evals / 60)
    rep2 = build_metrics(tr, np.zeros(2), eval_denominator=120)
    assert rep2.eval_pct == pytest.approx(rep.eval_pct / 2.0)
    with pytest.raises(ValueError):
        build_metrics(tr, np.zeros(2), eval_denominator=0)


def test_build_metrics_ess_clipped_to_post_burnin():
    # an antithetic chain has tau << 1; the report caps ESS at the sample count
    n, n_burnin = 60, 20
    col = np.tile([0.0, 1.0], n // 2)
    thetas = np.column_stack([col, col])
    rep = build_metrics(make_trace(thetas, n_burnin=n_burnin), np.zeros(2))
    assert np.all(rep.ess == float(n - n_burnin))


def test_build_metrics_includes_init_evals():
    tr = make_trace(np.random.default_rng(2).standard_normal((40, 1)),
                    n_burnin=10, gp_init_evals=5)
    rep = build_metrics(tr, np.zeros(1))
    assert rep.n_full_evals == int(tr.full_eval.sum()) + 5


def test_to_dict_json_friendly():
    tr = _metric_trace()
    d = build_metrics(tr, np.zeros(2)).to_dict()
    assert isinstance(d["ess"], list) and len(d["ess"]) == 2
    assert isinstance(d["alpha_gap_series"], list)
    for key in ("acceptance_rate", "esjd", "eval_pct", "sd", "n_full_evals",
                "n_iters", "n_burnin", "algo", "seed", "wall_clock_seconds"):
        assert key in d


def test_aggregate_single_report_equals_itself():
    rep = build_metrics(_metric_trace(), np.zeros(2))
    agg = aggregate_metrics([rep.to_dict()])
    assert agg["n_replicates"] == 1
    assert agg["mean"]["acceptance_rate"] == rep.acceptance_rate
    assert agg["mean"]["ess"] == pytest.approx(float(np.mean(rep.ess)))
    assert agg["mean"] == pytest.approx(agg["median"])


def test_aggregate_mean_and_median():
    reports = [
        MetricsReport(acceptance_rate=a, ess=np.array([e]), esjd=j,
                      eval_pct=p, sd=s)
        for a, e, j, p, s in [(0.2, 100.0, 1.0, 40.0, 0.1),
                              (0.4, 200.0, 2.0, 50.0, 0.2),
                              (0.9, 600.0, 6.0, 90.0, 0.9)]
    ]
    agg = aggregate_metrics([rep.to_dict() for rep in reports])
    assert agg["n_replicates"] == 3
    assert agg["mean"]["acceptance_rate"] == pytest.approx(0.5)
    assert agg["median"]["acceptance_rate"] == pytest.approx(0.4)
    assert agg["mean"]["ess"] == pytest.approx(300.0)
    assert agg["median"]["eval_pct"] == pytest.approx(50.0)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_metrics([])
