import math

import numpy as np
import pytest

from surrogate_mcmc import kernelgp
from surrogate_mcmc.kernelgp import (DuplicatePointError, Evaluation,
                                     EvaluationLedger, GradientModeError,
                                     IllConditionedKernelError, KernelHyper,
                                     _joint_block_matrix, _se_matrix, append, fit,
                                     log_marginal_likelihood, optimize_hypers,
                                     predict, predict_joint, se_kernel,
                                     se_kernel_derivative_blocks)
from surrogate_mcmc.samplers import SamplerConfig, run_gp_mh
from surrogate_mcmc.targets import make_target

HYPER_2D = KernelHyper(lengthscales=(1.0, 0.5), signal_variance=2.0)


def make_ledger(points, values, grads=None):
    entries = []
    for i, (p, v) in enumerate(zip(points, values)):
        g = None if grads is None else grads[i]
        entries.append(Evaluation(theta=np.asarray(p, float), log_lik=v, grad=g))
    return EvaluationLedger(entries)


def random_ledger(rng, n, dim, with_grads=False):
    points = rng.uniform(-2, 2, size=(n, dim))
    values = rng.standard_normal(n)
    grads = rng.standard_normal((n, dim)) if with_grads else None
    return make_ledger(points, values, grads)


def dense_predict(ledger, hyper, prior_mean, query):
    # independent oracle: explicit kernel matrix, plain inverse
    xs = ledger.thetas()
    n = len(ledger)
    kmat = np.array([[se_kernel(xs[i], xs[j], hyper) for j in range(n)]
                     for i in range(n)]) + hyper.jitter * np.eye(n)
    kinv = np.linalg.inv(kmat)
    ks = np.array([se_kernel(query, xs[i], hyper) for i in range(n)])
    resid = ledger.values() - prior_mean
    mean = prior_mean + ks @ kinv @ resid
    var = se_kernel(query, query, hyper) - ks @ kinv @ ks
    return mean, var


# ---------------------------------------------------------------------------
# kernel

def test_kernel_zero_distance_returns_signal_variance():
    hyper = KernelHyper(lengthscales=(0.3, 1.2), signal_variance=2.5)
    x = np.array([0.7, -1.1])
    assert se_kernel(x, x, hyper) == pytest.approx(2.5)


def test_kernel_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.standard_normal((2, 2))
        assert se_kernel(x, y, HYPER_2D) == pytest.approx(se_kernel(y, x, HYPER_2D))


def test_kernel_unit_distance_value():
    hyper = KernelHyper(lengthscales=(1.0,), signal_variance=1.0)
    assert se_kernel([0.0], [1.0], hyper) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError):
        se_kernel([0.0], [0.0, 1.0], HYPER_2D)


def test_derivative_blocks_zero_lag():
    x = np.array([0.4, -0.2])
    k, dk, d2 = se_kernel_derivative_blocks(x, x, HYPER_2D)
    assert k == pytest.approx(2.0)
    np.testing.assert_allclose(dk, 0.0)
    np.testing.assert_allclose(d2, np.diag(2.0 / np.array([1.0, 0.5]) ** 2))


def test_derivative_blocks_match_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(10):
        x, y = rng.uniform(-1, 1, size=(2, 2))
        k, dk, d2 = se_kernel_derivative_blocks(x, y, HYPER_2D)
        for j in range(2):
            ej = np.zeros(2)
            ej[j] = h
            fd = (se_kernel(x, y + ej, HYPER_2D) - se_kernel(x, y - ej, HYPER_2D)) / (2 * h)
            assert dk[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
        for i in range(2):
            for j in range(2):
                ei, ej = np.zeros(2), np.zeros(2)
                ei[i], ej[j] = h, h
                fd = (se_kernel(x + ei, y + ej, HYPER_2D)
                      - se_kernel(x + ei, y - ej, HYPER_2D)
                      - se_kernel(x - ei, y + ej, HYPER_2D)
                      + se_kernel(x - ei, y - ej, HYPER_2D)) / (4 * h * h)
                assert d2[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


# (rows, columns): the one-shot broadcast (under 1024 pairs) and the
# dimension-by-dimension assembly (1024 pairs or more), each with a single
# column as the predictions of a large ledger build it, square and rectangular
MATRIX_SHAPES = [(1, 1), (5, 3), (60, 1), (1100, 1), (40, 30), (33, 47)]


@pytest.mark.parametrize("n,m", MATRIX_SHAPES)
def test_se_matrix_matches_scalar_kernel(n, m):
    rng = np.random.default_rng(n * 100 + m)
    hyper = KernelHyper(lengthscales=(0.8, 1.7, 0.4), signal_variance=2.5)
    xa, xb = rng.uniform(-1, 1, size=(n, 3)), rng.uniform(-1, 1, size=(m, 3))
    expected = np.array([[se_kernel(a, b, hyper) for b in xb] for a in xa])
    np.testing.assert_allclose(_se_matrix(xa, xb, hyper), expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n,m", MATRIX_SHAPES)
def test_joint_block_matrix_matches_derivative_blocks(n, m):
    rng = np.random.default_rng(n * 100 + m)
    d = 3
    hyper = KernelHyper(lengthscales=(0.8, 1.7, 0.4), signal_variance=2.5)
    xa, xb = rng.uniform(-1, 1, size=(n, d)), rng.uniform(-1, 1, size=(m, d))
    blocks = _joint_block_matrix(xa, xb, hyper).reshape(n, 1 + d, m, 1 + d)
    expected = np.empty_like(blocks)
    for i, a in enumerate(xa):
        for j, b in enumerate(xb):
            k, dk_dy, d2 = se_kernel_derivative_blocks(a, b, hyper)
            expected[i, 0, j, 0] = k
            expected[i, 0, j, 1:] = dk_dy
            expected[i, 1:, j, 0] = -dk_dy
            expected[i, 1:, j, 1:] = d2
    np.testing.assert_allclose(blocks, expected, rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# fit / predict

def test_fit_single_point_interpolates():
    ledger = make_ledger([[0.3, -0.7]], [4.2])
    gp = fit(ledger, HYPER_2D, prior_mean=0.0)
    pred = predict(gp, [0.3, -0.7])
    assert pred.mean == pytest.approx(4.2, abs=1e-6)
    assert pred.variance <= 1e-6 * HYPER_2D.signal_variance


def test_fit_collinear_inputs_at_default_jitter():
    ledger = make_ledger([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [1.0, 2.0, 3.0])
    gp = fit(ledger, HYPER_2D, prior_mean=0.0)
    assert gp.jitter_used == HYPER_2D.jitter


def test_fit_matches_dense_solve_oracle():
    rng = np.random.default_rng(2)
    ledger = random_ledger(rng, 5, 2)
    gp = fit(ledger, HYPER_2D, prior_mean=0.4)
    for _ in range(20):
        q = rng.uniform(-2, 2, size=2)
        mean, var = dense_predict(ledger, HYPER_2D, 0.4, q)
        pred = predict(gp, q)
        assert pred.mean == pytest.approx(mean, abs=1e-8)
        assert pred.variance == pytest.approx(max(var, 0.0), abs=1e-8)


def test_interpolation_holds_at_every_training_point():
    rng = np.random.default_rng(3)
    ledger = random_ledger(rng, 12, 2)
    gp = fit(ledger, HYPER_2D, prior_mean=-1.0)
    for ev in ledger:
        pred = predict(gp, ev.theta)
        assert abs(pred.mean - ev.log_lik) <= 1e-6
        assert pred.variance <= 1e-6 * HYPER_2D.signal_variance


def test_predict_far_from_data_reverts_to_prior():
    ledger = make_ledger([[0.0, 0.0], [0.5, 0.5]], [3.0, 2.0])
    gp = fit(ledger, HYPER_2D, prior_mean=-5.0)
    pred = predict(gp, [200.0, 200.0])
    assert pred.mean == pytest.approx(-5.0, abs=1e-6)
    assert pred.variance == pytest.approx(HYPER_2D.signal_variance, abs=1e-6)


def test_two_point_closed_form_by_hand():
    hyper = KernelHyper(lengthscales=(1.0,), signal_variance=1.0)
    ledger = make_ledger([[0.0], [1.0]], [1.0, -2.0])
    gp = fit(ledger, hyper, prior_mean=0.5)
    q = np.array([0.4])
    # explicit 2x2 inverse
    j = hyper.jitter
    c = math.exp(-0.5)
    det = (1 + j) ** 2 - c * c
    kinv = np.array([[1 + j, -c], [-c, 1 + j]]) / det
    ks = np.array([math.exp(-0.5 * 0.4 ** 2), math.exp(-0.5 * 0.6 ** 2)])
    resid = np.array([0.5, -2.5])
    mean = 0.5 + ks @ kinv @ resid
    var = 1.0 - ks @ kinv @ ks
    pred = predict(gp, q)
    assert pred.mean == pytest.approx(mean, abs=1e-10)
    assert pred.variance == pytest.approx(var, abs=1e-10)


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_fitted_factor_has_zero_strict_upper_triangle(gradient_mode):
    rng = np.random.default_rng(21)
    ledger = random_ledger(rng, 40, 2, with_grads=gradient_mode)
    gp = fit(ledger, HYPER_2D, prior_mean=0.3, gradient_mode=gradient_mode)
    size = gp.chol.shape[0]
    assert size == 40 * (3 if gradient_mode else 1)
    assert np.all(gp.chol[np.triu_indices(size, 1)] == 0.0)
    assert np.all(np.diag(gp.chol) > 0.0)


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_escalated_fit_factors_a_fresh_matrix(gradient_mode):
    # the last input nearly repeats the first, so the first attempt fails; the
    # factor must be that of K + jitter_used I, not of a buffer the failed
    # attempt overwrote (the near-duplicate comes last so that only the final
    # pivot is ill-conditioned and two correct factors agree to rounding)
    hyper = KernelHyper(lengthscales=(1.0, 0.7), signal_variance=1.0, jitter=1e-16)
    points = [[0.0, 0.0], [0.5, -0.3], [-0.4, 0.8], [1.1, 0.2], [3e-9, 0.0]]
    grads = np.random.default_rng(4).standard_normal((5, 2)) if gradient_mode else None
    ledger = make_ledger(points, [1.0, 0.2, -0.5, 0.7, 1.0], grads)
    gp = fit(ledger, hyper, prior_mean=0.0, gradient_mode=gradient_mode)
    assert gp.jitter_used > hyper.jitter
    xs = ledger.thetas()
    kmat = (_joint_block_matrix if gradient_mode else _se_matrix)(xs, xs, hyper)
    direct = np.linalg.cholesky(kmat + gp.jitter_used * np.eye(kmat.shape[0]))
    np.testing.assert_allclose(gp.chol, direct, rtol=0, atol=1e-10)


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_refitting_one_ledger_is_bit_reproducible(gradient_mode):
    rng = np.random.default_rng(22)
    ledger = random_ledger(rng, 40, 2, with_grads=gradient_mode)
    first = fit(ledger, HYPER_2D, prior_mean=-0.2, gradient_mode=gradient_mode)
    second = fit(ledger, HYPER_2D, prior_mean=-0.2, gradient_mode=gradient_mode)
    for name in ("chol", "b_ref", "b_e"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_fit_empty_ledger_rejected():
    with pytest.raises(ValueError):
        fit(EvaluationLedger(), HYPER_2D, prior_mean=0.0)


def test_with_prior_mean_matches_refit():
    rng = np.random.default_rng(4)
    ledger = random_ledger(rng, 6, 2)
    gp = fit(ledger, HYPER_2D, prior_mean=0.0)
    moved = gp.with_prior_mean(3.5)
    refit = fit(ledger, HYPER_2D, prior_mean=3.5)
    for _ in range(10):
        q = rng.uniform(-2, 2, size=2)
        assert predict(moved, q).mean == pytest.approx(predict(refit, q).mean, abs=1e-10)
        assert predict(moved, q).variance == pytest.approx(predict(refit, q).variance, abs=1e-12)
    assert gp.with_prior_mean(0.0) is gp


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_alternating_recentres_do_not_drift(gradient_mode):
    rng = np.random.default_rng(13)
    ledger = random_ledger(rng, 8, 2, with_grads=gradient_mode)
    fitted = fit(ledger, HYPER_2D, prior_mean=0.4, gradient_mode=gradient_mode)
    gp = fitted
    means = (-120.0, 3.5)
    for i in range(1000):
        gp = gp.with_prior_mean(means[i % 2])
    # every recentre starts from the fit's whitened targets: no rounding accumulates
    np.testing.assert_array_equal(gp.white, fitted.with_prior_mean(means[1]).white)
    refit = fit(ledger, HYPER_2D, prior_mean=means[1], gradient_mode=gradient_mode)
    np.testing.assert_allclose(gp.white, refit.white, rtol=0, atol=1e-8)
    for _ in range(10):
        q = rng.uniform(-2, 2, size=2)
        if gradient_mode:
            a, b = predict_joint(gp, q), predict_joint(refit, q)
            np.testing.assert_allclose(a.grad_mean, b.grad_mean, rtol=0, atol=1e-8)
        else:
            a, b = predict(gp, q), predict(refit, q)
        assert a.mean == pytest.approx(b.mean, abs=1e-8)
        assert a.variance == pytest.approx(b.variance, abs=1e-12)


# ---------------------------------------------------------------------------
# append

def test_append_then_predict_new_point_exact():
    rng = np.random.default_rng(5)
    ledger = random_ledger(rng, 4, 2)
    gp = fit(ledger, HYPER_2D, prior_mean=0.0)
    ev = Evaluation(theta=np.array([1.7, -0.3]), log_lik=0.9)
    gp2 = append(gp, ev)
    pred = predict(gp2, ev.theta)
    assert pred.mean == pytest.approx(0.9, abs=1e-6)
    assert pred.variance <= 1e-6 * HYPER_2D.signal_variance


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_append_equals_refit(seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2, 2, size=(6, 2))
    values = rng.standard_normal(6)
    base = make_ledger(points[:3], values[:3])
    gp = fit(base, HYPER_2D, prior_mean=0.2)
    for i in range(3, 6):
        gp = append(gp, Evaluation(theta=points[i], log_lik=values[i]))
    full = fit(make_ledger(points, values), HYPER_2D, prior_mean=0.2)
    for _ in range(50):
        q = rng.uniform(-2, 2, size=2)
        a, b = predict(gp, q), predict(full, q)
        assert a.mean == pytest.approx(b.mean, abs=1e-8)
        assert a.variance == pytest.approx(b.variance, abs=1e-8)


def test_append_equals_refit_gradient_mode():
    # value/gradient pairs from one smooth function, as the samplers supply
    rng = np.random.default_rng(6)
    points = rng.uniform(-1, 1, size=(5, 2))
    values = np.sin(points[:, 0]) + 0.5 * np.cos(2 * points[:, 1])
    grads = np.stack([np.cos(points[:, 0]), -np.sin(2 * points[:, 1])], axis=1)
    base = make_ledger(points[:3], values[:3], grads[:3])
    gp = fit(base, HYPER_2D, prior_mean=0.0, gradient_mode=True)
    for i in range(3, 5):
        gp = append(gp, Evaluation(theta=points[i], log_lik=values[i], grad=grads[i]))
    full = fit(make_ledger(points, values, grads), HYPER_2D, prior_mean=0.0,
               gradient_mode=True)
    for _ in range(20):
        q = rng.uniform(-1, 1, size=2)
        a, b = predict_joint(gp, q), predict_joint(full, q)
        assert a.mean == pytest.approx(b.mean, abs=1e-8)
        np.testing.assert_allclose(a.grad_mean, b.grad_mean, atol=1e-8)
        np.testing.assert_allclose(a.joint_cov, b.joint_cov, atol=1e-8)


def test_append_chain_matches_fit_whitened_state_gradient_mode():
    rng = np.random.default_rng(14)
    points = rng.uniform(-1, 1, size=(6, 2))
    values = np.sin(points[:, 0]) + 0.5 * np.cos(2 * points[:, 1])
    grads = np.stack([np.cos(points[:, 0]), -np.sin(2 * points[:, 1])], axis=1)
    gp = fit(make_ledger(points[:2], values[:2], grads[:2]), HYPER_2D, prior_mean=0.0,
             gradient_mode=True).with_prior_mean(1.3)
    for i in range(2, 6):
        gp = append(gp, Evaluation(theta=points[i], log_lik=values[i], grad=grads[i]))
    full = fit(make_ledger(points, values, grads), HYPER_2D, prior_mean=1.3,
               gradient_mode=True)
    np.testing.assert_allclose(gp.chol, full.chol, rtol=0, atol=1e-8)
    np.testing.assert_allclose(gp.white, full.white, rtol=0, atol=1e-8)
    for _ in range(10):
        q = rng.uniform(-1, 1, size=2)
        a, b = predict_joint(gp, q), predict_joint(full, q)
        assert a.mean == pytest.approx(b.mean, abs=1e-8)
        np.testing.assert_allclose(a.grad_mean, b.grad_mean, rtol=0, atol=1e-8)
        np.testing.assert_allclose(a.joint_cov, b.joint_cov, rtol=0, atol=1e-8)


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_sibling_appends_share_nothing_they_write(gradient_mode):
    rng = np.random.default_rng(15)
    points = rng.uniform(-2, 2, size=(6, 2))
    values = rng.standard_normal(6)
    grads = rng.standard_normal((6, 2)) if gradient_mode else None
    ledger = lambda idx: make_ledger(points[idx], values[idx],
                                     None if grads is None else grads[idx])
    evs = [Evaluation(theta=points[i], log_lik=values[i],
                      grad=None if grads is None else grads[i]) for i in (4, 5)]
    parent = fit(ledger([0, 1, 2, 3]), HYPER_2D, prior_mean=0.5,
                 gradient_mode=gradient_mode).with_prior_mean(-0.7)
    first, second = append(parent, evs[0]), append(parent, evs[1])
    for gp, rows in ((parent, [0, 1, 2, 3]), (first, [0, 1, 2, 3, 4]),
                     (second, [0, 1, 2, 3, 5])):
        full = fit(ledger(rows), HYPER_2D, prior_mean=-0.7, gradient_mode=gradient_mode)
        assert gp.n_train == full.n_train
        np.testing.assert_allclose(gp.chol, full.chol, rtol=0, atol=1e-8)
        np.testing.assert_allclose(gp.white, full.white, rtol=0, atol=1e-8)
        for q in points[4:]:
            a, b = predict(gp, q), predict(full, q)
            assert a.mean == pytest.approx(b.mean, abs=1e-8)
            assert a.variance == pytest.approx(b.variance, abs=1e-8)


# ---------------------------------------------------------------------------
# storage: appends write their rows in place into a buffer shared by claim

def smooth_evals(rng, n, gradient_mode):
    points = rng.uniform(-2, 2, size=(n, 2))
    values = np.sin(points[:, 0]) + 0.5 * np.cos(2 * points[:, 1])
    grads = np.stack([np.cos(points[:, 0]), -np.sin(2 * points[:, 1])], axis=1)
    return [Evaluation(theta=t, log_lik=v, grad=g if gradient_mode else None)
            for t, v, g in zip(points, values, grads)]


def capacity(gp):
    return gp._factor.buffers[0].shape[0]


def assert_matches_fit(gp, evs, gradient_mode, rng):
    full = fit(EvaluationLedger(evs), HYPER_2D, prior_mean=gp.prior_mean,
               gradient_mode=gradient_mode)
    assert gp.n_train == len(evs)
    assert np.array_equal(gp.data.thetas(), full.data.thetas())
    np.testing.assert_allclose(gp.chol, full.chol, rtol=0, atol=1e-8)
    np.testing.assert_allclose(gp.white, full.white, rtol=0, atol=1e-8)
    for q in rng.uniform(-2, 2, size=(5, 2)):
        a, b = predict(gp, q), predict(full, q)
        assert a.mean == pytest.approx(b.mean, abs=1e-8)
        assert a.variance == pytest.approx(b.variance, abs=1e-8)
        if gradient_mode:
            a, b = predict_joint(gp, q), predict_joint(full, q)
            np.testing.assert_allclose(a.grad_mean, b.grad_mean, rtol=0, atol=1e-8)
            np.testing.assert_allclose(a.joint_cov, b.joint_cov, rtol=0, atol=1e-8)


def predictions(gp, queries):
    predict_fn = predict_joint if gp.gradient_mode else predict
    return [predict_fn(gp, q) for q in queries]


def assert_same_predictions(before, after):
    for a, b in zip(before, after):
        assert a.mean == b.mean and a.variance == b.variance
        if a.grad_mean is not None:
            assert np.array_equal(a.grad_mean, b.grad_mean)
            assert np.array_equal(a.joint_cov, b.joint_cov)


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_append_chain_writes_in_place_until_growth(gradient_mode):
    rng = np.random.default_rng(30)
    # fewer joint points: 40 of them make a 120 x 120 matrix too ill-conditioned
    # for an append chain and a fresh factorisation to agree to 1e-8
    evs = smooth_evals(rng, 14 if gradient_mode else 40, gradient_mode)
    width = 3 if gradient_mode else 1
    gp = fit(EvaluationLedger(evs[:3]), HYPER_2D, prior_mean=0.2,
             gradient_mode=gradient_mode)
    assert capacity(gp) == gp.chol.shape[0]
    growths = 0
    for i in range(3, len(evs)):
        child = append(gp, evs[i])
        in_place = (i + 1) * width <= capacity(gp)
        assert np.shares_memory(child.chol, gp.chol) == in_place
        assert np.shares_memory(child.data.thetas(), gp.data.thetas()) == (
            i + 1 <= gp.data._rows.buffers[0].shape[0])
        growths += not in_place
        gp = child
        assert gp.chol.flags.writeable is False
        assert np.all(gp.chol[np.triu_indices(gp.chol.shape[0], 1)] == 0.0)
    # about 25% headroom per copy: a handful of copies, not one per append
    assert 3 <= growths < (len(evs) - 3) / 2
    assert_matches_fit(gp, evs, gradient_mode, rng)


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_parent_predictions_unchanged_by_in_place_child(gradient_mode):
    rng = np.random.default_rng(31)
    evs = smooth_evals(rng, 8, gradient_mode)
    parent = append(fit(EvaluationLedger(evs[:6]), HYPER_2D, prior_mean=0.1,
                        gradient_mode=gradient_mode), evs[6])
    queries = rng.uniform(-2, 2, size=(6, 2))
    before = predictions(parent, queries)
    chol = parent.chol.copy()
    child = append(parent, evs[7])
    assert np.shares_memory(child.chol, parent.chol)
    assert np.array_equal(parent.chol, chol)
    assert parent.n_train == 7 and parent.data.position(evs[7].theta) is None
    assert_same_predictions(before, predictions(parent, queries))
    # the training point the child added is still a plain query to the parent
    assert predict(parent, evs[7].theta).variance > 0.0


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_sibling_of_in_place_child_copies_and_all_stay_correct(gradient_mode):
    rng = np.random.default_rng(32)
    evs = smooth_evals(rng, 10, gradient_mode)
    parent = append(fit(EvaluationLedger(evs[:5]), HYPER_2D, prior_mean=-0.3,
                        gradient_mode=gradient_mode), evs[5])
    first = append(parent, evs[6])
    second = append(parent, evs[7])
    assert np.shares_memory(first.chol, parent.chol)
    assert not np.shares_memory(second.chol, parent.chol)
    assert not np.shares_memory(second.data.thetas(), parent.data.thetas())
    # each line keeps growing in its own storage
    first_child, second_child = append(first, evs[8]), append(second, evs[9])
    assert np.shares_memory(second_child.chol, second.chol)
    assert second.data.position(evs[6].theta) is None
    assert first.data.position(evs[7].theta) is None
    for gp, idx in ((parent, [0, 1, 2, 3, 4, 5]), (first, [0, 1, 2, 3, 4, 5, 6]),
                    (second, [0, 1, 2, 3, 4, 5, 7]), (first_child, [0, 1, 2, 3, 4, 5, 6, 8]),
                    (second_child, [0, 1, 2, 3, 4, 5, 7, 9])):
        assert_matches_fit(gp, [evs[i] for i in idx], gradient_mode, rng)


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_singular_append_writes_nothing_and_keeps_the_claim(gradient_mode):
    hyper = KernelHyper(lengthscales=(1.0, 0.7), signal_variance=1.0, jitter=1e-30)
    rng = np.random.default_rng(33)
    evs = smooth_evals(rng, 4, gradient_mode)
    gp = append(fit(EvaluationLedger(evs[:2]), hyper, prior_mean=0.0,
                    gradient_mode=gradient_mode), evs[2])
    chol, white = gp.chol.copy(), gp.white.copy()
    filled = gp._factor.filled, gp.data._rows.filled
    near = Evaluation(theta=evs[0].theta + 1e-13, log_lik=evs[0].log_lik, grad=evs[0].grad)
    with pytest.raises(IllConditionedKernelError):
        append(gp, near)
    assert (gp._factor.filled, gp.data._rows.filled) == filled
    assert np.array_equal(gp.chol, chol) and np.array_equal(gp.white, white)
    grown = append(gp, evs[3])
    assert np.shares_memory(grown.chol, gp.chol)
    assert np.shares_memory(grown.data.thetas(), gp.data.thetas())
    full = fit(EvaluationLedger(evs), hyper, prior_mean=0.0, gradient_mode=gradient_mode)
    np.testing.assert_allclose(grown.chol, full.chol, rtol=0, atol=1e-8)


def test_solve_lower_reads_the_leading_block_of_a_wider_buffer():
    rng = np.random.default_rng(34)
    cap, n = 9, 6
    lower = np.tril(rng.standard_normal((n, n))) + 4.0 * np.eye(n)
    buf = np.full((cap, cap), np.nan)
    buf[:n, :n] = lower + np.triu(np.full((n, n), np.nan), 1)
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        x = kernelgp._solve_lower(buf, n, rhs)
        assert x.shape == rhs.shape
        np.testing.assert_allclose(lower @ x, rhs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# one cross-covariance solve per query point, shared by prediction and append

PREDICT_THEN_APPEND = [(False, predict), (True, predict), (True, predict_joint)]


@pytest.mark.parametrize("gradient_mode,predict_fn", PREDICT_THEN_APPEND)
@pytest.mark.parametrize("between", [False, True])
def test_append_after_prediction_equals_a_cold_append(gradient_mode, predict_fn, between):
    rng = np.random.default_rng(40)
    evs = smooth_evals(rng, 8, gradient_mode)
    other = rng.uniform(-2, 2, size=2)

    def parent():
        return fit(EvaluationLedger(evs[:7]), HYPER_2D, prior_mean=0.3,
                   gradient_mode=gradient_mode).with_prior_mean(-0.4)

    warm = parent()
    predict_fn(warm, evs[7].theta)
    if between:
        predict_fn(warm, other)
    warm_child, cold_child = append(warm, evs[7]), append(parent(), evs[7])
    for name in ("chol", "b_ref", "b_e", "white"):
        assert np.array_equal(getattr(warm_child, name), getattr(cold_child, name)), name


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_kept_solve_stays_with_its_surrogate(gradient_mode):
    rng = np.random.default_rng(41)
    evs = smooth_evals(rng, 8, gradient_mode)
    query = rng.uniform(-2, 2, size=2)
    predict_fn = predict_joint if gradient_mode else predict
    parent = fit(EvaluationLedger(evs[:7]), HYPER_2D, prior_mean=0.3,
                 gradient_mode=gradient_mode)
    predict_fn(parent, query)
    recentred = parent.with_prior_mean(-0.4)
    predict_fn(parent, query)
    grown = append(parent, evs[7])
    for child, rows, prior_mean in ((recentred, evs[:7], -0.4), (grown, evs, 0.3)):
        assert child._last_solve is None
        full = fit(EvaluationLedger(rows), HYPER_2D, prior_mean=prior_mean,
                   gradient_mode=gradient_mode)
        a, b = predict_fn(child, query), predict_fn(full, query)
        assert a.mean == pytest.approx(b.mean, abs=1e-8)
        assert a.variance == pytest.approx(b.variance, abs=1e-8)
        if gradient_mode:
            np.testing.assert_allclose(a.grad_mean, b.grad_mean, rtol=0, atol=1e-8)
            np.testing.assert_allclose(a.joint_cov, b.joint_cov, rtol=0, atol=1e-8)


def test_gp_mh_chain_solves_once_per_missed_prediction_and_never_in_append(monkeypatch):
    counts = {"misses": 0, "solves": 0, "appends": 0, "append_solves": 0}
    in_append = []
    solve_lower, predict_, append_ = (kernelgp._solve_lower, kernelgp.predict,
                                      kernelgp.append)

    def counting_solve(buf, n, rhs):
        # a scalar cross-covariance is the only one-column right-hand side:
        # a fit solves two columns, and an append's corner block one row
        if rhs.ndim == 2 and rhs.shape[1] == 1:
            counts["solves"] += 1
            counts["append_solves"] += bool(in_append)
        return solve_lower(buf, n, rhs)

    def counting_predict(gp, theta):
        counts["misses"] += gp.data.position(theta) is None
        return predict_(gp, theta)

    def counting_append(gp, ev):
        counts["appends"] += 1
        in_append.append(ev)
        try:
            return append_(gp, ev)
        finally:
            in_append.pop()

    monkeypatch.setattr(kernelgp, "_solve_lower", counting_solve)
    monkeypatch.setattr(kernelgp, "predict", counting_predict)
    monkeypatch.setattr(kernelgp, "append", counting_append)
    target = make_target("t5", seed=0)
    config = SamplerConfig(proposal_scales=target.proposal_scales, n_iters=150,
                           n_burnin=60, seed=0)
    trace = run_gp_mh(target, config, target.initial_point(np.random.default_rng(0)))
    # every stage-1 survivor was evaluated and appended, each without a solve
    assert counts["appends"] == trace.n_full_evals - config.gp_init_count > 0
    assert counts["append_solves"] == 0
    assert counts["solves"] == counts["misses"]


def test_append_duplicate_rejected():
    ledger = make_ledger([[0.0, 0.0]], [1.0])
    gp = fit(ledger, HYPER_2D, prior_mean=0.0)
    with pytest.raises(DuplicatePointError):
        append(gp, Evaluation(theta=np.array([0.0, 0.0]), log_lik=2.0))


def test_variance_decreases_after_append():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = rng.integers(1, 5)
        hyper = KernelHyper(lengthscales=rng.uniform(0.3, 2.0, dim),
                            signal_variance=rng.uniform(0.5, 3.0))
        ledger = random_ledger(rng, 4, dim)
        gp = fit(ledger, hyper, prior_mean=0.0)
        q = rng.uniform(-2, 2, dim)
        before = predict(gp, q).variance
        gp2 = append(gp, Evaluation(theta=rng.uniform(-2, 2, dim),
                                    log_lik=rng.standard_normal()))
        after = predict(gp2, q).variance
        assert after < before + 1e-12


# ---------------------------------------------------------------------------
# joint gradient mode

def test_predict_joint_training_point_serves_stored_values():
    rng = np.random.default_rng(8)
    ledger = random_ledger(rng, 4, 2, with_grads=True)
    gp = fit(ledger, HYPER_2D, prior_mean=0.0, gradient_mode=True)
    ev = ledger[2]
    pred = predict_joint(gp, ev.theta)
    assert pred.mean == pytest.approx(ev.log_lik)
    np.testing.assert_allclose(pred.grad_mean, ev.grad)
    np.testing.assert_allclose(pred.joint_cov, 0.0)


def test_predict_joint_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    ledger = random_ledger(rng, 6, 2, with_grads=True)
    gp = fit(ledger, HYPER_2D, prior_mean=0.3, gradient_mode=True)
    h = 1e-5
    for _ in range(5):
        q = rng.uniform(-1.5, 1.5, size=2)
        pred = predict_joint(gp, q)
        for j in range(2):
            ej = np.zeros(2)
            ej[j] = h
            fd = (predict(gp, q + ej).mean - predict(gp, q - ej).mean) / (2 * h)
            assert pred.grad_mean[j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_predict_joint_cov_consistent_with_scalar_path():
    rng = np.random.default_rng(10)
    ledger = random_ledger(rng, 5, 2, with_grads=True)
    gp = fit(ledger, HYPER_2D, prior_mean=0.0, gradient_mode=True)
    for _ in range(10):
        q = rng.uniform(-2, 2, size=2)
        joint = predict_joint(gp, q)
        scalar = predict(gp, q)
        np.testing.assert_allclose(joint.joint_cov, joint.joint_cov.T, atol=1e-10)
        evals = np.linalg.eigvalsh(joint.joint_cov)
        assert evals.min() >= -1e-10 * HYPER_2D.signal_variance
        assert joint.joint_cov[0, 0] == pytest.approx(scalar.variance, abs=1e-8)
        assert joint.mean == pytest.approx(scalar.mean, abs=1e-8)


def test_predict_joint_requires_gradient_mode():
    gp = fit(make_ledger([[0.0, 0.0]], [1.0]), HYPER_2D, prior_mean=0.0)
    with pytest.raises(GradientModeError):
        predict_joint(gp, [0.5, 0.5])


def test_fit_gradient_mode_needs_gradients():
    ledger = make_ledger([[0.0, 0.0]], [1.0])
    with pytest.raises(GradientModeError):
        fit(ledger, HYPER_2D, prior_mean=0.0, gradient_mode=True)


def test_joint_surrogate_tracks_gradient_data_better_than_prior():
    # values and gradients from a known quadratic; gradient info should make
    # the joint model reproduce the function between training points
    hyper = KernelHyper(lengthscales=(1.5,), signal_variance=4.0)
    f = lambda t: -0.5 * t ** 2
    xs = np.array([[-1.5], [0.0], [1.5]])
    ledger = make_ledger(xs, [f(x[0]) for x in xs],
                         [np.array([-x[0]]) for x in xs])
    gp = fit(ledger, hyper, prior_mean=0.0, gradient_mode=True)
    for t in (-0.8, 0.6, 1.1):
        pred = predict_joint(gp, [t])
        assert pred.mean == pytest.approx(f(t), abs=0.05)
        assert pred.grad_mean[0] == pytest.approx(-t, abs=0.1)


# ---------------------------------------------------------------------------
# marginal likelihood + hyper search

def test_lml_single_point_hand_value():
    hyper = KernelHyper(lengthscales=(1.0,), signal_variance=1.0)
    ledger = make_ledger([[0.0]], [0.7])
    value = log_marginal_likelihood(ledger, hyper, prior_mean=0.7)
    assert value == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-6)


def test_lml_invariant_to_ledger_order():
    rng = np.random.default_rng(11)
    points = rng.uniform(-2, 2, size=(5, 2))
    values = rng.standard_normal(5)
    a = log_marginal_likelihood(make_ledger(points, values), HYPER_2D, 0.0)
    perm = [3, 0, 4, 1, 2]
    b = log_marginal_likelihood(make_ledger(points[perm], values[perm]), HYPER_2D, 0.0)
    assert a == pytest.approx(b, abs=1e-9)


def test_lml_matches_dense_oracle():
    rng = np.random.default_rng(12)
    points = rng.uniform(-2, 2, size=(5, 2))
    values = rng.standard_normal(5)
    ledger = make_ledger(points, values)
    kmat = np.array([[se_kernel(points[i], points[j], HYPER_2D) for j in range(5)]
                     for i in range(5)]) + HYPER_2D.jitter * np.eye(5)
    resid = values - 0.3
    sign, logdet = np.linalg.slogdet(kmat)
    assert sign > 0
    expected = (-0.5 * resid @ np.linalg.inv(kmat) @ resid - 0.5 * logdet
                - 2.5 * math.log(2 * math.pi))
    assert log_marginal_likelihood(ledger, HYPER_2D, 0.3) == pytest.approx(expected, abs=1e-8)


def dense_joint_kernel(points, hyper):
    # independent oracle: [f, grad f] blocks from the scalar derivative formulas
    n, d = points.shape
    kmat = np.empty((n * (1 + d), n * (1 + d)))
    for i in range(n):
        for j in range(n):
            k, dk_dy, d2 = se_kernel_derivative_blocks(points[i], points[j], hyper)
            block = np.empty((1 + d, 1 + d))
            block[0, 0] = k
            block[0, 1:] = dk_dy
            block[1:, 0] = -dk_dy
            block[1:, 1:] = d2
            kmat[i * (1 + d):(i + 1) * (1 + d), j * (1 + d):(j + 1) * (1 + d)] = block
    return kmat


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_lml_matches_dense_formula_both_modes(gradient_mode):
    rng = np.random.default_rng(16)
    n, prior_mean = 4, -0.6
    points = rng.uniform(-2, 2, size=(n, 2))
    values = rng.standard_normal(n)
    grads = rng.standard_normal((n, 2))
    if gradient_mode:
        ledger = make_ledger(points, values, grads)
        kmat = dense_joint_kernel(points, HYPER_2D)
        resid = np.concatenate([(values - prior_mean)[:, None], grads], axis=1).ravel()
    else:
        ledger = make_ledger(points, values)
        kmat = np.array([[se_kernel(points[i], points[j], HYPER_2D) for j in range(n)]
                         for i in range(n)])
        resid = values - prior_mean
    assert fit(ledger, HYPER_2D, prior_mean,
               gradient_mode=gradient_mode).jitter_used == HYPER_2D.jitter
    kmat = kmat + HYPER_2D.jitter * np.eye(kmat.shape[0])
    sign, logdet = np.linalg.slogdet(kmat)
    assert sign > 0
    expected = (-0.5 * resid @ np.linalg.solve(kmat, resid) - 0.5 * logdet
                - 0.5 * kmat.shape[0] * math.log(2 * math.pi))
    value = log_marginal_likelihood(ledger, HYPER_2D, prior_mean, gradient_mode=gradient_mode)
    assert value == pytest.approx(expected, rel=1e-8, abs=1e-8)


def test_optimize_never_worsens_objective():
    rng = np.random.default_rng(13)
    ledger = random_ledger(rng, 10, 2)
    init = KernelHyper(lengthscales=(3.0, 0.1), signal_variance=0.5)
    out = optimize_hypers(ledger, init, prior_mean=0.0, budget=80)
    before = log_marginal_likelihood(ledger, init, 0.0)
    after = log_marginal_likelihood(ledger, out, 0.0)
    assert after >= before - 1e-9


def test_optimize_budget_zero_is_noop():
    ledger = make_ledger([[0.0], [1.0], [2.0]], [0.0, 1.0, 0.5])
    init = KernelHyper(lengthscales=(1.3,), signal_variance=2.0)
    assert optimize_hypers(ledger, init, 0.0, budget=0) is init


def test_optimize_rejects_negative_budget():
    ledger = make_ledger([[0.0]], [0.0])
    with pytest.raises(ValueError):
        optimize_hypers(ledger, KernelHyper((1.0,), 1.0), 0.0, budget=-1)


@pytest.mark.parametrize("gradient_mode", [False, True])
def test_optimize_fits_at_most_budget_times(monkeypatch, gradient_mode):
    # the simplex's first vertex is the start point: it must not be fitted twice
    rng = np.random.default_rng(17)
    ledger = random_ledger(rng, 12, 2, with_grads=gradient_mode)
    init = KernelHyper(lengthscales=(2.0, 0.3), signal_variance=1.5)
    calls = []
    real_fit = kernelgp.fit

    def counting_fit(*args, **kwargs):
        calls.append(args)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(kernelgp, "fit", counting_fit)
    for budget in (1, 2, 15):
        calls.clear()
        optimize_hypers(ledger, init, prior_mean=0.0, budget=budget,
                        gradient_mode=gradient_mode)
        assert 1 <= len(calls) <= budget


def test_optimize_recovers_lengthscale():
    # data drawn from a known GP; the search should land near its lengthscale
    true = KernelHyper(lengthscales=(0.7,), signal_variance=2.0)
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        xs = rng.uniform(-3, 3, size=(40, 1))
        kmat = np.array([[se_kernel(a, b, true) for b in xs] for a in xs])
        ys = np.linalg.cholesky(kmat + 1e-10 * np.eye(40)) @ rng.standard_normal(40)
        ledger = make_ledger(xs, ys)
        init = KernelHyper(lengthscales=(2.0,), signal_variance=1.0)
        out = optimize_hypers(ledger, init, prior_mean=0.0, budget=300)
        if 0.35 <= out.lengthscales[0] <= 1.4:
            hits += 1
    assert hits >= 18


# ---------------------------------------------------------------------------
# conditioning and validation

def test_jitter_bounds_enforced():
    with pytest.raises(ValueError):
        KernelHyper(lengthscales=(1.0,), signal_variance=1.0, jitter=2e-6)
    with pytest.raises(ValueError):
        KernelHyper(lengthscales=(1.0,), signal_variance=1.0, jitter=0.0)
    hyper = KernelHyper(lengthscales=(1.0,), signal_variance=4.0)
    assert hyper.jitter == pytest.approx(4e-10)


def test_jitter_escalates_for_near_duplicate_inputs():
    hyper = KernelHyper(lengthscales=(1.0,), signal_variance=1.0, jitter=1e-16)
    ledger = make_ledger([[0.0], [3e-9]], [1.0, 1.0])
    gp = fit(ledger, hyper, prior_mean=0.0)
    assert gp.jitter_used > hyper.jitter


def test_ill_conditioned_kernel_raises_after_escalation():
    hyper = KernelHyper(lengthscales=(1.0,), signal_variance=1.0, jitter=1e-30)
    ledger = make_ledger([[0.0], [1e-13], [2e-13]], [1.0, 1.0, 1.0])
    with pytest.raises(IllConditionedKernelError):
        fit(ledger, hyper, prior_mean=0.0)


def test_ledger_rejects_duplicates_and_dim_mismatch():
    ledger = make_ledger([[0.0, 1.0]], [1.0])
    with pytest.raises(DuplicatePointError):
        ledger.with_entry(Evaluation(theta=np.array([0.0, 1.0]), log_lik=2.0))
    with pytest.raises(ValueError):
        ledger.with_entry(Evaluation(theta=np.array([0.0]), log_lik=2.0))
    with pytest.raises(DuplicatePointError):
        make_ledger([[0.0, 1.0], [0.5, 0.5], [0.0, 1.0]], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        EvaluationLedger([Evaluation(theta=np.array([0.0, 1.0]), log_lik=1.0),
                          Evaluation(theta=np.array([0.0]), log_lik=2.0)])
    assert len(ledger) == 1
    assert ledger.position([0.0, 1.0]) == 0
    assert ledger.position([0.0, 2.0]) is None


def test_ledger_with_entry_leaves_parent_and_is_the_fitted_training_set():
    rng = np.random.default_rng(21)
    ledger = EvaluationLedger(Evaluation(theta=t, log_lik=-0.5 * float(t @ t), grad=-t)
                              for t in rng.standard_normal((4, 2)))
    thetas, values, grads = (ledger.thetas().copy(), ledger.values().copy(),
                             ledger.grads().copy())
    new = Evaluation(theta=np.array([3.0, -3.0]), log_lik=-9.0, grad=np.array([-3.0, 3.0]))
    grown = ledger.with_entry(new)
    sibling = ledger.with_entry(Evaluation(theta=np.array([-3.0, 3.0]), log_lik=-9.0))
    assert len(ledger) == 4 and ledger.position(new.theta) is None
    assert np.array_equal(ledger.thetas(), thetas)
    assert np.array_equal(ledger.values(), values)
    assert np.array_equal(ledger.grads(), grads)
    assert len(grown) == len(sibling) == 5
    assert grown.position(new.theta) == 4 and sibling.position(new.theta) is None
    assert np.array_equal(grown[4].grad, new.grad)
    with pytest.raises(GradientModeError):
        sibling.grads()
    for arr in (ledger.thetas(), ledger.values(), ledger.grads(), grown.thetas()):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for gradient_mode in (False, True):
        gp = fit(ledger, HYPER_2D, prior_mean=0.0, gradient_mode=gradient_mode)
        assert gp.data is ledger
        assert append(gp, new).data.position(new.theta) == 4
        assert len(gp.data) == 4


def test_evaluation_requires_finite_values():
    with pytest.raises(ValueError):
        Evaluation(theta=np.array([0.0]), log_lik=math.inf)
    with pytest.raises(ValueError):
        Evaluation(theta=np.array([np.nan]), log_lik=0.0)
    with pytest.raises(ValueError):
        Evaluation(theta=np.array([0.0]), log_lik=0.0, grad=np.array([np.inf]))


def test_grads_unavailable_without_gradient_entries():
    ledger = make_ledger([[0.0]], [1.0])
    with pytest.raises(GradientModeError):
        ledger.grads()
