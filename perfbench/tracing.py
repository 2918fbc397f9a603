"""Timing wrappers installed around the package's public entry points.

The package carries no instrumentation of its own. ``instrument`` swaps
module, class and dict attributes for wrappers and restores them on exit,
so spans are recorded from outside, at the layer boundaries:

* ``EvalClock`` times exact evaluations only. The end-to-end run uses it
  so that the surrogate's overhead is the chain's wall time minus the time
  spent inside the target, both measured in the same chain. It also lets
  a ``speed.SpeedGauge`` sample the machine's speed during the chain.
* ``SpanRecorder`` records one span (name, start, end, parent, flag) per
  call into every layer, kept in memory and written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from surrogate_mcmc import bench, kernelgp, samplers
from surrogate_mcmc.kernelgp import GPSurrogate, IllConditionedKernelError
from surrogate_mcmc.targets import TargetInstance

EVAL_METHODS = ("log_likelihood", "log_likelihood_and_grad")
STAGE_FUNCTIONS = {"stage1_log_alpha_mh": "acceptance.stage1",
                   "stage1_log_alpha_mala": "acceptance.stage1",
                   "stage2_log_alpha_mh": "acceptance.stage2",
                   "stage2_log_alpha_mala": "acceptance.stage2"}
KERNELGP_FUNCTIONS = ("fit", "append", "predict", "predict_joint", "optimize_hypers")


@contextlib.contextmanager
def instrument(replacements):
    """Install ``(owner, key, wrapper_factory)`` replacements; restore on exit.

    ``owner`` is a module, a class or a dict; the factory receives the
    original callable and returns its replacement.
    """
    saved = []
    try:
        for owner, key, factory in replacements:
            original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
            saved.append((owner, key, original))
            _assign(owner, key, factory(original))
        yield
    finally:
        for owner, key, original in reversed(saved):
            _assign(owner, key, original)


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class ReplicateCapture:
    """Grabs the target and trace of each chain that ``execute_replicate``
    builds, and the moment the chain driver returned."""

    def __init__(self):
        self.target = None
        self.trace = None
        self.driver_end = 0.0

    def replacements(self):
        def make_target(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.target = original(*args, **kwargs)
                return self.target
            return wrapper

        def driver(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.trace = original(*args, **kwargs)
                self.driver_end = time.perf_counter()
                return self.trace
            return wrapper

        return ([(bench, "make_target", make_target)]
                + [(bench.ALGORITHMS, algo, driver) for algo in list(bench.ALGORITHMS)])


class EvalClock:
    """(start, end) of every exact evaluation, with no other wrapper. After
    every ``every``-th evaluation returns, ``gauge`` takes a reference
    sample, outside the interval."""

    def __init__(self, gauge, every: int):
        self.intervals = []
        self.gauge = gauge
        self.every = every

    def replacements(self):
        def timed(original):
            intervals = self.intervals
            clock = time.perf_counter
            sample, every = self.gauge.sample, self.every

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = original(*args, **kwargs)
                intervals.append((t0, clock()))
                if len(intervals) % every == 0:
                    sample()
                return result
            return wrapper

        return [(TargetInstance, name, timed) for name in EVAL_METHODS]

    def seconds_after(self, start: float) -> float:
        """Total duration of the evaluations begun at or after ``start``."""
        return float(sum(b - a for a, b in self.intervals if a >= start))


# ---------------------------------------------------------------------------
# spans

def _recentre_flag(result, args):
    return "noop" if result is args[0] else None


def _refit_flag(result, args):
    init = args[1]
    same = (np.array_equal(result.lengthscales, init.lengthscales)
            and result.signal_variance == init.signal_variance)
    return None if same else "improved"


class SpanRecorder:
    """Column store of spans; a span's parent is the innermost open span."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.flags = []
        self._open = []

    def __len__(self):
        return len(self.names)

    def wrap(self, name, original, flag=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, flags, open_ = self.parents, self.flags, self._open
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            flags.append(None)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                open_.pop()
                flags[idx] = type(exc).__name__
                raise
            ends[idx] = clock()
            open_.pop()
            if flag is not None:
                flags[idx] = flag(result, args)
            return result
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def replacements(self):
        def named(name, flag=None):
            return lambda original: self.wrap(name, original, flag)

        reps = [(bench, "make_target", named("targets.make")),
                (bench, "build_metrics", named("diagnostics.build_metrics")),
                (samplers, "init_ledger", named("samplers.init_ledger")),
                (GPSurrogate, "with_prior_mean", named("kernelgp.recentre", _recentre_flag))]
        reps += [(bench.ALGORITHMS, algo, named("samplers.driver"))
                 for algo in list(bench.ALGORITHMS)]
        reps += [(TargetInstance, m, named("targets.eval")) for m in EVAL_METHODS]
        reps += [(samplers, fn, named(layer)) for fn, layer in STAGE_FUNCTIONS.items()]
        reps += [(kernelgp, fn, named("kernelgp." + fn,
                                      _refit_flag if fn == "optimize_hypers" else None))
                 for fn in KERNELGP_FUNCTIONS]
        return reps

    def self_times(self, lo: int, hi: int) -> np.ndarray:
        """Self time of spans ``lo..hi-1``: duration minus the union of their
        children's intervals, clipped to the parent."""
        starts = np.asarray(self.starts[lo:hi])
        ends = np.asarray(self.ends[lo:hi])
        covered = np.zeros(hi - lo)
        last_end = np.full(hi - lo, -np.inf)
        for i in range(lo, hi):
            p = self.parents[i]
            if p < lo:
                continue
            a = max(self.starts[i], last_end[p - lo], self.starts[p])
            b = min(self.ends[i], self.ends[p])
            if b > a:
                covered[p - lo] += b - a
            last_end[p - lo] = max(last_end[p - lo], b)
        return (ends - starts) - covered

    def write_csv(self, path, roots):
        """One line per span; ``roots`` maps each root span index to a label."""
        label = ""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("chain,index,name,parent,start,end,flag\n")
            for i, name in enumerate(self.names):
                label = roots.get(i, label)
                fh.write(f"{label},{i},{name},{self.parents[i]},{self.starts[i]!r},"
                         f"{self.ends[i]!r},{self.flags[i] or ''}\n")


def span_cost_s(calls: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""
    noop = lambda: None
    wrapped = SpanRecorder().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return max((t1 - t0) - (t2 - t1), 0.0) / calls


def empty_row() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "flags": {}}


def layer_totals(rec: SpanRecorder, ranges) -> dict:
    """Per-name call counts, inclusive and self seconds, and flag counts over
    the span ranges ``(lo, hi)`` of some chains; ``fit`` spans nested under
    ``optimize_hypers`` are kept apart as ``kernelgp.refit.objective``."""
    out = {}
    for lo, hi in ranges:
        self_s = rec.self_times(lo, hi)
        for i in range(lo, hi):
            name = rec.names[i]
            parent = rec.parents[i]
            if name == "kernelgp.fit" and parent >= 0 and rec.names[parent] == "kernelgp.optimize_hypers":
                name = "kernelgp.refit.objective"
            row = out.setdefault(name, empty_row())
            row["calls"] += 1
            row["s"] += rec.ends[i] - rec.starts[i]
            row["self_s"] += float(self_s[i - lo])
            flag = rec.flags[i]
            if flag:
                row["flags"][flag] = row["flags"].get(flag, 0) + 1
    return out


def ill_conditioned_count(totals: dict) -> int:
    return sum(row["flags"].get(IllConditionedKernelError.__name__, 0)
               for name, row in totals.items() if name.startswith("kernelgp."))
