"""Noise-free Gaussian process regression over expensive log-likelihoods.

Squared-exponential kernel with per-dimension lengthscales, optional joint
modelling of the function together with its gradient, exact interpolation of
stored evaluations, incremental Cholesky extension on append, and a
deterministic simplex search for kernel hyperparameters.

The surrogate keeps its targets whitened by the Cholesky factor L of the
kernel matrix (Rasmussen & Williams, GPML, Alg. 2.1): L^-1 (t - m0 e) for
the fit's prior mean m0 and L^-1 e for the value-row indicator e. Moving
the constant prior mean is then an O(N) vector update, an append extends
both by one forward-substitution block, and a prediction reads its mean off
the same L^-1 k* it needs for the variance; nothing calls a full
Cholesky solve.

One method builds a query point's cross-covariance k* and solves L^-1 k*,
and the surrogate keeps that solve for the last point it was asked about.
A prediction and an append at the same point so share one solve: the
survivor of a two-stage screen is appended with only its corner block left
to build and factor.

A fit assembles K into a buffer of its own, adds the jitter to the diagonal
and factors it in place with LAPACK potrf. If K is not numerically positive
definite, the jitter is raised by a decade and K is assembled afresh, up to
``_JITTER_DECADES`` times, before ``IllConditionedKernelError`` is raised.

An append writes only its new rows. L lies in the leading rows of a square
buffer with spare capacity, and the ledger's arrays likewise; a surrogate
shares them with the surrogate appended from it, which writes its rows past
the parent's in place unless a sibling got there first or they do not fit,
and then copies into buffers about 25% larger. ``GPSurrogate.chol`` is a
read-only view of the leading block, and every triangular solve reads the
factor where it lies, through LAPACK trtrs with the buffer's row length as
the leading dimension.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs
from scipy.optimize import minimize

DEFAULT_JITTER_FACTOR = 1e-10
MAX_JITTER_FACTOR = 1e-6
_JITTER_DECADES = 3


class IllConditionedKernelError(RuntimeError):
    """Kernel matrix could not be factorised, even after jitter escalation."""


class DuplicatePointError(ValueError):
    """Input location already present where a distinct one is required."""


class GradientModeError(RuntimeError):
    """Operation requires the other of scalar / joint-gradient mode."""


def _vector(x, dim: int | None = None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def _key(theta: np.ndarray) -> bytes:
    return np.ascontiguousarray(theta, dtype=float).tobytes()


@dataclass(frozen=True, eq=False)
class KernelHyper:
    """Squared-exponential kernel hyperparameters.

    ``jitter`` is the nugget added to the factorised matrix diagonal; it
    defaults to ``DEFAULT_JITTER_FACTOR * signal_variance`` and must stay
    below ``MAX_JITTER_FACTOR * signal_variance`` so interpolation holds.
    """

    lengthscales: np.ndarray
    signal_variance: float
    jitter: float | None = None

    def __post_init__(self):
        ls = _vector(self.lengthscales)
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_variance", float(self.signal_variance))
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise ValueError("lengthscales must be finite and positive")
        if not math.isfinite(self.signal_variance) or self.signal_variance <= 0:
            raise ValueError("signal_variance must be finite and positive")
        jitter = self.jitter
        if jitter is None:
            jitter = DEFAULT_JITTER_FACTOR * self.signal_variance
        jitter = float(jitter)
        object.__setattr__(self, "jitter", jitter)
        if jitter <= 0 or jitter > MAX_JITTER_FACTOR * self.signal_variance:
            raise ValueError(
                "jitter must lie in (0, %g * signal_variance]" % MAX_JITTER_FACTOR
            )

    @property
    def dim(self) -> int:
        return self.lengthscales.shape[0]


@dataclass(frozen=True)
class Evaluation:
    """One exact log-likelihood evaluation, optionally with its gradient."""

    theta: np.ndarray
    log_lik: float
    grad: np.ndarray | None = None

    def __post_init__(self):
        theta = _vector(self.theta)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "log_lik", float(self.log_lik))
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        if not math.isfinite(self.log_lik):
            raise ValueError("log_lik must be finite")
        if self.grad is not None:
            grad = _vector(self.grad, theta.shape[0])
            if not np.all(np.isfinite(grad)):
                raise ValueError("gradient must be finite")
            object.__setattr__(self, "grad", grad)


# A surrogate and the surrogates appended from it share storage: the factor
# and the ledger each sit in the leading rows of buffers with spare rows. A
# child of a holder of rows [0, n) writes its rows [n, n + width) in place
# only while no one has written past row n and the rows fit; otherwise it
# copies the n rows into buffers this much larger. A chain of appends so
# writes only its new rows, O(N * width) amortised, and a second child of
# one parent takes a copy and leaves its sibling intact.
_GROWTH = 1.25


class _Rows:
    """Buffers of equal length whose first ``filled`` rows hold data.

    ``square`` buffers also grow in their second axis: a lower factor. A
    copy zeroes the first rows past their data, and whoever fills a row
    zeroes it past the diagonal, so every leading block is lower triangular.
    """

    __slots__ = ("buffers", "filled", "square")

    def __init__(self, buffers: tuple, filled: int, square: bool = False):
        self.buffers, self.filled, self.square = buffers, filled, square

    def claim(self, n: int, width: int) -> "_Rows":
        """Storage whose rows [n, n + width) the holder of rows [0, n) may
        write: these buffers if no one has written past row n and the rows
        fit, else grown copies of their first n rows. The caller raises
        ``filled`` once it has written the rows."""
        if self.filled == n and n + width <= self.buffers[0].shape[0]:
            return self
        cap = math.ceil(_GROWTH * (n + width))
        grown = []
        for buf in self.buffers:
            if self.square:
                new = np.empty((cap, cap))
                new[:n, :n] = buf[:n, :n]
                new[:n, n:] = 0.0
            else:
                new = np.empty((cap,) + buf.shape[1:])
                new[:n] = buf[:n]
            grown.append(new)
        return _Rows(tuple(grown), n, self.square)


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


class EvaluationLedger:
    """Immutable store of exact evaluations with O(1) duplicate lookup.

    The evaluations are held as stacked read-only arrays: thetas, values and,
    when every entry has one, gradients. ``with_entry`` returns a grown
    ledger and leaves this one as it was, so two appends to one parent cannot
    see each other: the first writes its row in place past this ledger's
    rows (see ``_GROWTH``), a sibling, or an entry without the gradient the
    others have, copies. The index of thetas is shared the same way, so
    ``position`` ignores the keys at or past this ledger's length.
    """

    def __init__(self, entries=()):
        entries = list(entries)
        self._index: dict[bytes, int] = {}
        self._n = 0
        for ev in entries:
            self._check(ev, entries[0].theta.shape[0])
            self._index[_key(ev.theta)] = self._n
            self._n += 1
        with_grads = all(ev.grad is not None for ev in entries)
        buffers = (np.array([ev.theta for ev in entries]),
                   np.array([ev.log_lik for ev in entries]))
        if with_grads:
            buffers += (np.array([ev.grad for ev in entries]),)
        self._view(_Rows(buffers, self._n))

    def _check(self, ev: Evaluation, dim: int) -> None:
        if self.position(ev.theta) is not None:
            raise DuplicatePointError("theta already recorded in ledger")
        if ev.theta.shape[0] != dim:
            raise ValueError("dimension mismatch with existing entries")

    def _view(self, rows: _Rows) -> None:
        self._rows = rows
        views = [_read_only(buf[:self._n]) for buf in rows.buffers]
        self._thetas, self._values = views[:2]
        self._grads = views[2] if len(views) == 3 else None

    def with_entry(self, ev: Evaluation) -> "EvaluationLedger":
        """This ledger grown by ``ev``; raises as the constructor would."""
        if not self._n:
            return EvaluationLedger([ev])
        self._check(ev, self.dim)
        return self._grown(ev)

    def _grown(self, ev: Evaluation) -> "EvaluationLedger":
        if self._grads is not None and ev.grad is None:
            # the grown ledger holds no gradients, so it cannot share these rows
            return EvaluationLedger([*self, ev])
        n = self._n
        rows = self._rows.claim(n, 1)
        index = self._index if rows is self._rows else {
            key: i for key, i in self._index.items() if i < n}
        for buf, value in zip(rows.buffers, (ev.theta, ev.log_lik, ev.grad)):
            buf[n] = value
        index[_key(ev.theta)] = n
        rows.filled = n + 1
        grown = object.__new__(EvaluationLedger)
        grown._index, grown._n = index, n + 1
        grown._view(rows)
        return grown

    def position(self, theta) -> int | None:
        i = self._index.get(_key(_vector(theta)))
        return i if i is not None and i < self._n else None

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> Evaluation:
        grad = None if self._grads is None else self._grads[i]
        return Evaluation(theta=self._thetas[i], log_lik=self._values[i], grad=grad)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def dim(self) -> int:
        if not self._n:
            raise ValueError("empty ledger has no dimension")
        return self._thetas.shape[1]

    def thetas(self) -> np.ndarray:
        return self._thetas

    def values(self) -> np.ndarray:
        return self._values

    def grads(self) -> np.ndarray:
        if self._grads is None:
            raise GradientModeError("ledger entries lack gradients")
        return self._grads


@dataclass(frozen=True)
class SurrogatePrediction:
    """Predictive mean/variance at one point; gradient blocks in joint mode."""

    mean: float
    variance: float
    grad_mean: np.ndarray | None = None
    joint_cov: np.ndarray | None = None


# ---------------------------------------------------------------------------
# kernel functions

def se_kernel(x, y, hyper: KernelHyper) -> float:
    """sigma^2 * exp(-0.5 * sum_j (x_j - y_j)^2 / l_j^2)."""
    x = _vector(x, hyper.dim)
    y = _vector(y, hyper.dim)
    z = (x - y) / hyper.lengthscales
    return hyper.signal_variance * math.exp(-0.5 * float(z @ z))


def se_kernel_derivative_blocks(x, y, hyper: KernelHyper):
    """Kernel value with its first/second cross derivative blocks.

    Returns ``(k, dk_dy, d2k_dxdy)`` where ``dk_dy[j] = k (x_j-y_j)/l_j^2``
    and ``d2k_dxdy[i, j] = k (delta_ij/l_i^2 - (x_i-y_i)(x_j-y_j)/(l_i^2 l_j^2))``.
    """
    x = _vector(x, hyper.dim)
    y = _vector(y, hyper.dim)
    k = se_kernel(x, y, hyper)
    inv2 = 1.0 / hyper.lengthscales**2
    u = (x - y) * inv2
    dk_dy = k * u
    d2 = k * (np.diag(inv2) - np.outer(u, u))
    return k, dk_dy, d2


# Below this many (row, column) pairs a kernel matrix is built in one
# broadcast: fewer numpy calls, and the temporaries stay small. Above it each
# input dimension is taken in turn, so nothing larger than the output is built.
# Timed at d = 5 with one BLAS thread on a 2-core x86 VM, the two break even
# near 800 pairs for a single column and for a square fit alike; from 1024
# pairs on, the per-dimension loop wins in both shapes and both kernels (e.g.
# a 1024 x 1 column 32 vs 36 us, 1400 x 1 36 vs 42 us, 32 x 32 54 vs 59 us).
_SMALL_GRID = 1024


def _se_matrix(xa: np.ndarray, xb: np.ndarray, hyper: KernelHyper) -> np.ndarray:
    if xa.shape[0] * xb.shape[0] < _SMALL_GRID:
        diff = (xa[:, None, :] - xb[None, :, :]) / hyper.lengthscales
        return hyper.signal_variance * np.exp(-0.5 * np.einsum("ijk,ijk->ij", diff, diff))
    kmat = np.zeros((xa.shape[0], xb.shape[0]))
    term = np.empty_like(kmat)
    for a, ell in enumerate(hyper.lengthscales):
        np.subtract.outer(xa[:, a], xb[:, a], out=term)
        term /= ell
        term *= term
        kmat += term
    kmat *= -0.5
    np.exp(kmat, out=kmat)
    kmat *= hyper.signal_variance
    return kmat


def _joint_block_matrix(xa: np.ndarray, xb: np.ndarray, hyper: KernelHyper) -> np.ndarray:
    """Covariance of stacked [f, grad f] observation blocks, one per point.

    Block (i, j) is [[k, dk/dy], [-dk/dy', d2k/dxdy]] at (xa[i], xb[j]),
    with the terms of ``se_kernel_derivative_blocks``.
    """
    n, d = xa.shape
    m = xb.shape[0]
    inv2 = 1.0 / hyper.lengthscales**2
    blocks = np.empty((n, 1 + d, m, 1 + d))
    if n * m < _SMALL_GRID:
        diff = xa[:, None, :] - xb[None, :, :]
        k0 = hyper.signal_variance * np.exp(-0.5 * np.einsum("ijk,k,ijk->ij", diff, inv2,
                                                             diff))
        dk = k0[:, :, None] * diff * inv2  # d k / d y
        u = diff * inv2
        d2 = k0[:, :, None, None] * (np.diag(inv2)[None, None]
                                     - u[:, :, :, None] * u[:, :, None, :])
        blocks[:, 0, :, 0] = k0
        blocks[:, 0, :, 1:] = dk
        blocks[:, 1:, :, 0] = -np.transpose(dk, (0, 2, 1))
        blocks[:, 1:, :, 1:] = np.transpose(d2, (0, 2, 1, 3))
        return blocks.reshape(n * (1 + d), m * (1 + d))
    diff = xa.T[:, :, None] - xb.T[:, None, :]  # (d, n, m)
    u = diff * inv2[:, None, None]
    k0 = np.zeros((n, m))
    for a in range(d):
        k0 += u[a] * diff[a]
    k0 *= -0.5
    np.exp(k0, out=k0)
    k0 *= hyper.signal_variance
    blocks[:, 0, :, 0] = k0
    term = np.empty((n, m))
    for a in range(d):
        dk = blocks[:, 0, :, 1 + a]
        np.multiply(k0, diff[a], out=dk)
        dk *= inv2[a]
        np.negative(dk, out=blocks[:, 1 + a, :, 0])
        # d2k is symmetric in (a, b): each pair is computed once and mirrored
        for b in range(a, d):
            np.multiply(u[a], u[b], out=term)
            np.subtract(inv2[a] if a == b else 0.0, term, out=term)
            np.multiply(k0, term, out=blocks[:, 1 + a, :, 1 + b])
            if b != a:
                blocks[:, 1 + b, :, 1 + a] = blocks[:, 1 + a, :, 1 + b]
    return blocks.reshape(n * (1 + d), m * (1 + d))


def _query_prior_block(hyper: KernelHyper) -> np.ndarray:
    d = hyper.dim
    block = np.zeros((1 + d, 1 + d))
    block[0, 0] = hyper.signal_variance
    block[1:, 1:] = np.diag(hyper.signal_variance / hyper.lengthscales**2)
    return block


def _stable_cholesky(assemble, jitter: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``assemble() + level I`` and the level used.

    ``assemble`` returns a fresh C-ordered symmetric matrix on every call.
    potrf factors it in place: its transpose is a Fortran-ordered view of
    the same matrix, whose upper factor L' leaves L in the buffer. A failed
    attempt has overwritten its buffer, so each escalation assembles anew.
    """
    level = jitter
    for _ in range(_JITTER_DECADES + 1):
        kmat = assemble()
        n = kmat.shape[0]
        kmat.reshape(-1)[::n + 1] += level
        factor, info = dpotrf(kmat.T, lower=False, overwrite_a=True, clean=True)
        if info == 0:
            return factor.T, level
        level *= 10.0
    raise IllConditionedKernelError(
        f"cholesky failed for {n}x{n} kernel matrix after jitter escalation to {level / 10.0:g}"
    )


def _solve_lower(buf: np.ndarray, n: int, rhs: np.ndarray) -> np.ndarray:
    """L^-1 rhs for the lower factor L in the leading n x n block of ``buf``.

    ``buf`` is C-ordered, so ``buf[:n].T`` is a Fortran-ordered (cap, n)
    view with L' in its leading block. LAPACK trtrs, told that block is
    upper triangular and to transpose it, solves L x = rhs reading the
    factor where it lies, with lda = cap: nothing is copied.
    """
    x, info = dtrtrs(buf[:n].T, rhs, lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"trtrs failed with info {info}")
    return x


# ---------------------------------------------------------------------------
# surrogate model

@dataclass(frozen=True, eq=False)
class GPSurrogate:
    """Immutable trained surrogate; ``append`` and recentring return new values.

    With K = L L' (``chol``), ``t`` stacking the values (and, in joint mode,
    the gradients) and ``e`` marking the value rows: ``b_ref = L^-1 (t -
    reference_mean e)``, ``b_e = L^-1 e`` and ``white = L^-1 (t - prior_mean
    e)``, always computed from ``b_ref`` and ``b_e`` so repeated recentring
    cannot drift. ``data`` is the training set, row for row. L lies in the
    leading rows of a buffer shared with the surrogates appended from this
    one (see ``_GROWTH``); ``chol`` is a read-only view of it.

    ``_last_solve`` keeps L^-1 k* for the last point a prediction or an
    append asked about, so a prediction and an append at the same point
    share one solve. It is the one field that changes after construction,
    and the surrogates that ``with_prior_mean`` and ``append`` build start
    without it.
    """

    hyper: KernelHyper
    data: EvaluationLedger
    prior_mean: float
    _factor: _Rows
    reference_mean: float
    b_ref: np.ndarray
    b_e: np.ndarray
    white: np.ndarray
    jitter_used: float
    gradient_mode: bool
    _last_solve: tuple | None = field(default=None, init=False, repr=False)

    @property
    def n_train(self) -> int:
        return len(self.data)

    @property
    def chol(self) -> np.ndarray:
        n = self.b_ref.shape[0]
        return _read_only(self._factor.buffers[0][:n, :n])

    def _cross_solve(self, theta: np.ndarray) -> np.ndarray:
        """Read-only w = L^-1 k(X, theta): one column in scalar mode, the
        1 + d columns of the value-gradient block in joint mode."""
        key = _key(theta)
        if self._last_solve is not None and self._last_solve[0] == key:
            return self._last_solve[1]
        cross = _assembler(self.gradient_mode)(self.data.thetas(), theta[None, :], self.hyper)
        w = _solve_lower(self._factor.buffers[0], self.b_ref.shape[0], cross)
        w.flags.writeable = False
        object.__setattr__(self, "_last_solve", (key, w))
        return w

    @property
    def dim(self) -> int:
        return self.data.dim

    def with_prior_mean(self, prior_mean: float) -> "GPSurrogate":
        """Recentre on a new constant prior mean in O(N); ``self`` if unchanged."""
        prior_mean = float(prior_mean)
        if not math.isfinite(prior_mean):
            raise ValueError("prior_mean must be finite")
        if prior_mean == self.prior_mean:
            return self
        white = self.b_ref - (prior_mean - self.reference_mean) * self.b_e
        return replace(self, prior_mean=prior_mean, white=white)


def _assembler(gradient_mode: bool):
    """The kernel matrix builder of a surrogate's mode."""
    return _joint_block_matrix if gradient_mode else _se_matrix


def _centered_targets(y: np.ndarray, grads: np.ndarray | None, prior_mean: float,
                      gradient_mode: bool) -> np.ndarray:
    if not gradient_mode:
        return y - prior_mean
    # gradient observations are centred by the (zero) gradient of the constant mean
    return np.concatenate([(y - prior_mean)[:, None], grads], axis=1).ravel()


def _value_rows(n: int, dim: int, gradient_mode: bool) -> np.ndarray:
    """The indicator e of the value rows among the stacked targets."""
    if not gradient_mode:
        return np.ones(n)
    e = np.zeros((n, 1 + dim))
    e[:, 0] = 1.0
    return e.ravel()


def fit(ledger: EvaluationLedger, hyper: KernelHyper, prior_mean: float,
        gradient_mode: bool = False) -> GPSurrogate:
    """Train on every ledger entry, kept as ``data``; exact up to the jitter."""
    if len(ledger) == 0:
        raise ValueError("cannot fit on an empty ledger")
    x = ledger.thetas()
    if x.shape[1] != hyper.dim:
        raise ValueError("hyper dimension does not match ledger")
    y = ledger.values()
    grads = ledger.grads() if gradient_mode else None
    prior_mean = float(prior_mean)
    if not math.isfinite(prior_mean):
        raise ValueError("prior_mean must be finite")
    assemble = _assembler(gradient_mode)
    chol, jitter_used = _stable_cholesky(lambda: assemble(x, x, hyper), hyper.jitter)
    rhs = np.column_stack([_centered_targets(y, grads, prior_mean, gradient_mode),
                           _value_rows(x.shape[0], x.shape[1], gradient_mode)])
    b_ref, b_e = _solve_lower(chol, chol.shape[0], rhs).T
    return GPSurrogate(hyper=hyper, data=ledger, prior_mean=prior_mean,
                       _factor=_Rows((chol,), chol.shape[0], square=True),
                       reference_mean=prior_mean, b_ref=b_ref, b_e=b_e, white=b_ref,
                       jitter_used=jitter_used, gradient_mode=gradient_mode)


def append(gp: GPSurrogate, ev: Evaluation) -> GPSurrogate:
    """Extend with one evaluation via a rank-(block) Cholesky update.

    The factor and the whitened targets grow by one forward-substitution
    block, so nothing is re-solved, and only the new rows are written; the
    block's L^-1 k* is the one a prediction at ``ev.theta`` already solved,
    if it was the last point ``gp`` predicted at. Matches a full refit at the
    same jitter to tight numerical tolerance. An append that raises writes
    nothing.
    """
    gp.data._check(ev, gp.dim)
    theta = ev.theta
    if gp.gradient_mode and ev.grad is None:
        raise GradientModeError("joint-gradient surrogate requires gradients on append")
    w = gp._cross_solve(theta)
    width = w.shape[1]
    corner = _assembler(gp.gradient_mode)(theta[None, :], theta[None, :], gp.hyper)
    corner = corner + gp.jitter_used * np.eye(width)
    schur = corner - w.T @ w
    try:
        corner_chol = np.linalg.cholesky(0.5 * (schur + schur.T))
    except np.linalg.LinAlgError:
        raise IllConditionedKernelError("appended point makes the kernel matrix singular")
    n = gp.b_ref.shape[0]
    factor = gp._factor.claim(n, width)
    buf = factor.buffers[0]
    buf[n:n + width, :n] = w.T
    buf[n:n + width, n:n + width] = corner_chol
    buf[n:n + width, n + width:] = 0.0
    factor.filled = n + width

    grad_new = ev.grad[None, :] if gp.gradient_mode else None
    rhs = np.column_stack([
        _centered_targets(np.array([ev.log_lik]), grad_new, gp.reference_mean,
                          gp.gradient_mode) - w.T @ gp.b_ref,
        _value_rows(1, gp.dim, gp.gradient_mode) - w.T @ gp.b_e])
    block = _solve_lower(corner_chol, width, rhs)
    b_ref = np.concatenate([gp.b_ref, block[:, 0]])
    b_e = np.concatenate([gp.b_e, block[:, 1]])
    white = np.concatenate([gp.white, block[:, 0] - (gp.prior_mean - gp.reference_mean)
                            * block[:, 1]])
    return replace(gp, data=gp.data._grown(ev), _factor=factor, b_ref=b_ref, b_e=b_e,
                   white=white)


def predict(gp: GPSurrogate, theta) -> SurrogatePrediction:
    """Predictive mean and variance of the function value at ``theta``.

    A point already in the training set is served exactly with zero variance.
    """
    theta = _vector(theta, gp.dim)
    pos = gp.data.position(theta)
    if pos is not None:
        return SurrogatePrediction(mean=float(gp.data.values()[pos]), variance=0.0)
    w = gp._cross_solve(theta)[:, 0]
    mean = gp.prior_mean + float(w @ gp.white)
    variance = max(gp.hyper.signal_variance - float(w @ w), 0.0)
    return SurrogatePrediction(mean=mean, variance=variance)


def predict_joint(gp: GPSurrogate, theta) -> SurrogatePrediction:
    """Joint prediction of value and gradient with full (1+d) x (1+d) covariance."""
    if not gp.gradient_mode:
        raise GradientModeError("predict_joint requires a joint-gradient surrogate")
    theta = _vector(theta, gp.dim)
    d = gp.dim
    pos = gp.data.position(theta)
    if pos is not None:
        return SurrogatePrediction(mean=float(gp.data.values()[pos]), variance=0.0,
                                   grad_mean=gp.data.grads()[pos].copy(),
                                   joint_cov=np.zeros((1 + d, 1 + d)))
    w = gp._cross_solve(theta)
    joint_mean = w.T @ gp.white
    joint_mean[0] += gp.prior_mean
    cov = _query_prior_block(gp.hyper) - w.T @ w
    cov = 0.5 * (cov + cov.T)
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] < 0.0:
        cov = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
        cov = 0.5 * (cov + cov.T)
    return SurrogatePrediction(mean=float(joint_mean[0]), variance=float(max(cov[0, 0], 0.0)),
                               grad_mean=joint_mean[1:].copy(), joint_cov=cov)


def log_marginal_likelihood(ledger: EvaluationLedger, hyper: KernelHyper,
                            prior_mean: float, gradient_mode: bool = False) -> float:
    """-0.5 (y-m)' K^-1 (y-m) - 0.5 log det K - (t/2) log 2 pi at the jittered K."""
    gp = fit(ledger, hyper, prior_mean, gradient_mode=gradient_mode)
    n = gp.white.shape[0]
    quad = float(gp.white @ gp.white)
    logdet = 2.0 * float(np.sum(np.log(np.diag(gp.chol))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi)


def optimize_hypers(ledger: EvaluationLedger, init: KernelHyper, prior_mean: float,
                    budget: int, gradient_mode: bool = False) -> KernelHyper:
    """Deterministic simplex search over log lengthscales and log signal variance.

    Never returns hypers worse than ``init`` under the marginal likelihood;
    with ``budget == 0`` the initial value is returned unchanged.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if budget == 0:
        return init
    jitter_ratio = init.jitter / init.signal_variance
    d = init.dim

    def unpack(z: np.ndarray) -> KernelHyper:
        sv = math.exp(z[d])
        return KernelHyper(lengthscales=np.exp(z[:d]), signal_variance=sv,
                           jitter=jitter_ratio * sv)

    def nll(z: np.ndarray) -> float:
        if np.any(np.abs(z) > 30.0):
            return np.inf
        try:
            return -log_marginal_likelihood(ledger, unpack(z), prior_mean,
                                            gradient_mode=gradient_mode)
        except IllConditionedKernelError:
            return np.inf

    z0 = np.log(np.concatenate([init.lengthscales, [init.signal_variance]]))
    f0 = nll(z0)
    if not np.isfinite(f0):
        warnings.warn("hyperparameter search could not evaluate the initial point",
                      RuntimeWarning, stacklevel=2)
        return init
    # the simplex's first vertex is z0 itself: serve it f0 rather than fit it again
    res = minimize(lambda z: f0 if np.array_equal(z, z0) else nll(z), z0,
                   method="Nelder-Mead",
                   options={"maxfev": int(budget), "xatol": 1e-3, "fatol": 1e-3,
                            "disp": False})
    if not np.isfinite(res.fun) or res.fun > f0:
        return init
    return unpack(res.x)
