"""Workloads, chain execution, output checks and the two metric views.

Every chain goes through ``bench.execute_replicate``, the path the CLI
uses. A workload pairs a two-stage sampler with its one-stage baseline on
one target and runs both over a fixed panel of replicate seeds, one chain
after another in this process.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from surrogate_mcmc import bench, kernelgp
from surrogate_mcmc.bench import RunConfig
from surrogate_mcmc.targets import make_target

from speed import SpeedGauge
from tracing import (EvalClock, ReplicateCapture, SpanRecorder,
                     empty_row, ill_conditioned_count, instrument, layer_totals,
                     span_cost_s)

DEFAULT_ITERS = 2500
# The timed panel is fixed: a workload's ESS differs up to tenfold from one
# replicate seed to the next, so a panel drawn from --seed would measure
# Monte Carlo luck rather than the code. --seed picks which panel seed the
# determinism check repeats, and the probes' synthetic ledger.
PANEL_FIRST_SEED = 0
DETERMINISM_ITERS = 400
# Set-ups timed per end-to-end run, spread over the panel.
SETUP_SAMPLES = 24
# Pooled posterior means of the two samplers must agree within this many
# Monte Carlo standard errors, coordinate by coordinate.
MEAN_AGREEMENT_Z = 4.0
# Stands in for "never breaks even" in the JSON result, which takes numbers
# only; the text report says "never".
BREAKEVEN_NEVER_MS = 1e12


@dataclass(frozen=True)
class Workload:
    name: str
    target: str
    baseline: str
    two_stage: str
    ledger_cap: int | None
    # Seconds one seed's pair of chains, with the cheap sampler's repeats,
    # takes at the default length in an end-to-end run on a
    # 2-core x86 box with one BLAS thread; sets the panel size for --seconds.
    pair_seconds: float
    # The cheaper sampler of the pair. In untraced runs it is timed at every
    # panel seed after each chain of the other sampler, and each seed's wall
    # time is the mean of its repeats. A shared 2-core VM switches between a
    # fast and a ~1.5x slower state every few seconds: one short chain lands
    # in either, while the repeats see the same mix as the longer chains.
    repeated: str
    # How many times the cheaper sampler runs at every panel seed after each
    # chain of the other; more where its chains are few and short.
    rounds: int
    # Exact evaluations between two speed samples inside a chain, per
    # sampler: about 0.1 s of a two-stage chain on that box, and 10-25
    # samples in a short baseline chain. Counted, not timed, so
    # that a run's allocations, and with them the garbage collections that
    # set its peak memory, repeat exactly.
    sample_every: dict
    # Samplers whose hot path streams kernel matrices larger than L2; their
    # speed factor includes the gauge's memory part.
    memory_bound: frozenset

    @property
    def eval_method(self) -> str:
        return "log_likelihood_and_grad" if self.two_stage == "gp-mala" else "log_likelihood"


WORKLOADS = {w.name: w for w in (
    Workload("t5-joint", "t5", "mala", "gp-mala", 150, 14.0, repeated="mala", rounds=3,
             sample_every={"gp-mala": 20, "mala": 100}, memory_bound=frozenset({"gp-mala"})),
    Workload("t5-scalar", "t5", "mh", "gp-mh", None, 7.5, repeated="mh", rounds=1,
             sample_every={"gp-mh": 20, "mh": 250}, memory_bound=frozenset({"gp-mh"})),
    Workload("t4-costly", "t4", "mh", "gp-mh", None, 17.0, repeated="gp-mh", rounds=1,
             sample_every={"gp-mh": 20, "mh": 25}, memory_bound=frozenset()),
)}


def panel_size(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.pair_seconds))


@dataclass
class Chain:
    """One replicate of one sampler, with what the checks and metrics need.

    Its times are at the machine's nominal speed: measured seconds, less
    the gauge's own samples, divided by the gauge's slowdown factor around
    the chain.
    """

    algo: str
    seed: int
    two_stage: bool
    error: str | None = None
    check_failure: str | None = None
    trace: object = None
    evals: int = 0
    wall_s: float = 0.0
    chain_eval_s: float = 0.0
    ess: np.ndarray = field(default_factory=lambda: np.zeros(0))
    spans: tuple = (0, 0)

    @property
    def finished(self) -> bool:
        """Ran to the end without raising, so its numbers exist."""
        return self.error is None

    @property
    def ok(self) -> bool:
        """Finished and passed every output check."""
        return self.error is None and self.check_failure is None

    @property
    def ess_min(self) -> float:
        return float(self.ess.min())

    def fail(self, reason: str) -> None:
        """Record a failed output check; the chain's numbers still count."""
        if self.check_failure is None:
            self.check_failure = reason


def run_chain(workload: Workload, algo: str, seed: int, iters: int, *,
              recorder: SpanRecorder | None = None) -> Chain:
    """Run one replicate through ``execute_replicate``; an exception is
    recorded by name and does not propagate."""
    chain = Chain(algo=algo, seed=seed, two_stage=algo == workload.two_stage)
    gauge = SpeedGauge()
    capture, clock = ReplicateCapture(), EvalClock(gauge, workload.sample_every[algo])
    cfg = RunConfig(target=workload.target, algos=(algo,), seed=seed, n_iters=iters,
                    n_burnin=iters // 5, ledger_cap=workload.ledger_cap)
    reps = recorder.replacements() if recorder is not None else clock.replacements()
    gauge.sample()
    with instrument(reps + capture.replacements()):
        lo = len(recorder) if recorder is not None else 0
        try:
            if recorder is not None:
                entry = recorder.span("bench.execute_replicate",
                                      bench.execute_replicate, cfg, algo, 0)
            else:
                entry = bench.execute_replicate(cfg, algo, 0)
        except Exception as exc:  # noqa: BLE001 - a failing chain is a result
            chain.error = f"{type(exc).__name__}: {exc}"
            return chain
    gauge.sample()
    trace, target = capture.trace, capture.target
    chain_end = capture.driver_end
    chain_start = chain_end - trace.wall_clock_seconds
    chain.trace = trace
    chain.evals = target.eval_count
    slowdown = gauge.factor(algo in workload.memory_bound)
    chain.wall_s = (trace.wall_clock_seconds
                    - gauge.injected_s(chain_start, chain_end)) / slowdown
    chain.chain_eval_s = clock.seconds_after(chain_start) / slowdown
    chain.ess = np.asarray(entry["metrics"]["ess"], dtype=float)
    chain.spans = (lo, len(recorder) if recorder is not None else 0)
    # Exact-evaluation accounting: the target's counter is the truth. A
    # two-stage trace counts its initial design; a baseline trace leaves out
    # the start-point evaluation.
    expected = trace.n_full_evals + (0 if chain.two_stage else 1)
    if chain.evals != expected:
        chain.fail(f"EvalAccountingError: target counted {chain.evals}, "
                   f"trace implies {expected}")
    return chain


class _SetUpDone(Exception):
    """Raised from a replicate's first ``kernelgp.fit``: set-up is over."""


def time_setups(workload: Workload, n_seeds: int, count: int) -> list:
    """Seconds at nominal speed from the start of ``execute_replicate`` to
    the end of the two-stage sampler's first GP fit, the last step before
    its first iteration, for ``count`` replicates cycling through the panel
    seeds. Each is cut off there, so set-up can be timed many times at
    little cost."""
    gauge, times = SpeedGauge(), []

    def first_fit(original):
        def wrapper(*args, **kwargs):
            original(*args, **kwargs)
            raise _SetUpDone(time.perf_counter())
        return wrapper

    with instrument([(kernelgp, "fit", first_fit)]):
        for i in range(count):
            cfg = RunConfig(target=workload.target, algos=(workload.two_stage,),
                            seed=PANEL_FIRST_SEED + i % n_seeds,
                            ledger_cap=workload.ledger_cap)
            gauge.sample()
            t0 = time.perf_counter()
            try:
                bench.execute_replicate(cfg, workload.two_stage, 0)
            except _SetUpDone as done:
                times.append(done.args[0] - t0)
            except Exception:  # noqa: BLE001 - the panel's chain records it
                continue
    gauge.sample()
    factor = gauge.factor(memory_bound=False)
    return [t / factor for t in times]


# ---------------------------------------------------------------------------
# output checks

def determinism_seed(seed: int, n_seeds: int) -> int:
    return PANEL_FIRST_SEED + seed % n_seeds


def check_determinism(workload: Workload, seed: int) -> tuple[list[Chain], str]:
    """Run one short two-stage chain twice on the same seed; evaluation
    counts, ESS and every kernelgp call count must repeat exactly."""
    runs = []
    for _ in range(2):
        rec = SpanRecorder()
        chain = run_chain(workload, workload.two_stage, seed, DETERMINISM_ITERS, recorder=rec)
        counts = {name: row["calls"] for name, row in layer_totals(rec, [(0, len(rec))]).items()
                  if name.startswith("kernelgp.")}
        runs.append((chain, counts))
    (first, counts1), (second, counts2) = runs
    detail = "ok"
    if first.finished and second.finished:
        if first.evals != second.evals:
            detail = f"evals {first.evals} != {second.evals}"
        elif not np.array_equal(first.ess, second.ess):
            detail = f"ESS {first.ess.tolist()} != {second.ess.tolist()}"
        elif counts1 != counts2:
            detail = f"kernelgp calls {counts1} != {counts2}"
        if detail != "ok":
            second.fail("NondeterminismError: " + detail)
    else:
        detail = "chain failed"
    return [first, second], detail


def _pooled_mean(chains: list[Chain]):
    """Mean of chain means and its Monte Carlo standard error per coordinate."""
    means = np.array([c.trace.post_burnin().mean(axis=0) for c in chains])
    mcse2 = np.array([c.trace.post_burnin().var(axis=0) / c.ess for c in chains])
    return means.mean(axis=0), np.sqrt(mcse2.sum(axis=0)) / len(chains)


def check_posterior_agreement(two: list[Chain], base: list[Chain]) -> float:
    """Largest |z| over coordinates between the two samplers' pooled means;
    fails every two-stage chain of the pool beyond ``MEAN_AGREEMENT_Z``."""
    m2, se2 = _pooled_mean(two)
    m1, se1 = _pooled_mean(base)
    z = float(np.max(np.abs(m2 - m1) / np.hypot(se2, se1)))
    if not z <= MEAN_AGREEMENT_Z:
        for c in two:
            c.fail(f"PosteriorMismatch: pooled means differ by {z:.2f} MCSE")
    return z


# ---------------------------------------------------------------------------
# the panel

@dataclass
class PanelRun:
    workload: Workload
    iters: int
    two: list
    base: list
    repeats: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    setups: list = field(default_factory=list)

    @property
    def chains(self) -> list:
        """Every chain attempted, repeats included."""
        return self.two + self.base + self.repeats

    def pairs(self):
        """Seeds on which both samplers finished."""
        return [(t, b) for t, b in zip(self.two, self.base) if t.finished and b.finished]


def _average_repeats(chains: list[Chain]) -> Chain:
    """The first finished repeat, given the mean wall and in-chain
    evaluation time of all finished repeats; every repeat must match it in
    evaluation count and ESS."""
    done = [c for c in chains if c.finished]
    if not done:
        return chains[0]
    first = done[0]
    for c in done[1:]:
        if c.evals != first.evals or not np.array_equal(c.ess, first.ess):
            c.fail("NondeterminismError: a repeat of the same seed differs")
    first.wall_s = statistics.fmean(c.wall_s for c in done)
    first.chain_eval_s = statistics.fmean(c.chain_eval_s for c in done)
    return first


def run_panel(workload: Workload, n_seeds: int, iters: int,
              recorder: SpanRecorder | None = None) -> PanelRun:
    run = PanelRun(workload, iters, [], [])
    seeds = range(PANEL_FIRST_SEED, PANEL_FIRST_SEED + n_seeds)
    repeated = workload.repeated if recorder is None else None
    tries = {(algo, seed): [] for algo in (workload.two_stage, workload.baseline)
             for seed in seeds}
    per_seed = -(-SETUP_SAMPLES // n_seeds)
    for seed in seeds:
        if recorder is None:
            run.setups += time_setups(workload, n_seeds, per_seed)
        for algo in (workload.two_stage, workload.baseline):
            for s in list(seeds) * workload.rounds if algo == repeated else (seed,):
                tries[algo, s].append(run_chain(workload, algo, s, iters, recorder=recorder))
    for seed in seeds:
        for algo, out in ((workload.two_stage, run.two), (workload.baseline, run.base)):
            kept = _average_repeats(tries[algo, seed])
            out.append(kept)
            run.repeats += [c for c in tries[algo, seed] if c is not kept]
    pairs = run.pairs()
    if pairs:
        z = check_posterior_agreement([t for t, _ in pairs], [b for _, b in pairs])
        run.checks.append(f"posterior means agree: max |z| = {z:.2f} "
                          f"(limit {MEAN_AGREEMENT_Z:g})")
    return run


# ---------------------------------------------------------------------------
# end-to-end view (run with only the evaluation clock installed)

def end_to_end(run: PanelRun, peak_rss_mb: float, attempted: int, failed: int) -> dict:
    pairs = run.pairs()
    two = [t for t, _ in pairs]
    base = [b for _, b in pairs]
    wall2, wall1 = sum(c.wall_s for c in two), sum(c.wall_s for c in base)
    ess2, ess1 = sum(c.ess_min for c in two), sum(c.ess_min for c in base)
    evals2, evals1 = sum(c.evals for c in two), sum(c.evals for c in base)
    # Surrogate and driver price: chain wall time minus the time the chain
    # spent inside exact evaluations, both measured in the same chain.
    over2 = wall2 - sum(c.chain_eval_s for c in two)
    over1 = wall1 - sum(c.chain_eval_s for c in base)
    saved_per_ess = evals1 / ess1 - evals2 / ess2
    if saved_per_ess > 0:
        breakeven_ms = 1e3 * (over2 / ess2 - over1 / ess1) / saved_per_ess
    else:
        breakeven_ms = BREAKEVEN_NEVER_MS
    s_per_ess, base_s_per_ess = wall2 / ess2, wall1 / ess1
    return {
        "setup_s": statistics.median(run.setups),
        "wall_s": wall2,
        "s_per_ess": s_per_ess,
        "baseline_s_per_ess": base_s_per_ess,
        "speedup_vs_baseline": base_s_per_ess / s_per_ess,
        "ess_min": ess2,
        "evals_per_kess": 1e3 * evals2 / ess2,
        "overhead_ms_per_iter": 1e3 * over2 / (len(two) * run.iters),
        "breakeven_eval_ms": breakeven_ms,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }


# ---------------------------------------------------------------------------
# per-layer view (run with every span wrapper installed)

def replay_eval_ms(workload: Workload, chains: list, per_chain: int = 64) -> float:
    """Mean milliseconds per exact evaluation, replayed outside the chain at
    evenly spaced post-burn-in states of each chain."""
    seconds, count = 0.0, 0
    for c in chains:
        evaluate = getattr(make_target(workload.target, seed=c.seed), workload.eval_method)
        post = c.trace.post_burnin()
        states = post[np.linspace(0, len(post) - 1, per_chain).astype(int)]
        t0 = time.perf_counter()
        for theta in states:
            evaluate(theta)
        seconds += time.perf_counter() - t0
        count += len(states)
    return 1e3 * seconds / count


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: PanelRun, rec: SpanRecorder, eval_ms: float,
              untraced_wall: float, traced_wall: float) -> tuple[dict, float]:
    """Per-layer metrics of the two-stage chains (plus the baseline's
    target and driver time) and the gap between the sum of all self times
    and the traced replicate wall time, as a share of the latter."""
    two = [c for c in run.two if c.finished]
    base = [c for c in run.base if c.finished]
    t = layer_totals(rec, [c.spans for c in two])
    b = layer_totals(rec, [c.spans for c in base])
    row = lambda name: t.get(name, empty_row())
    brow = lambda name: b.get(name, empty_row())
    refit, recentre = row("kernelgp.optimize_hypers"), row("kernelgp.recentre")
    # The per-proposal prediction: ``predict`` under gp-mh, ``predict_joint``
    # under gp-mala. One name per workload keeps every per-layer time nonzero.
    predict = row("kernelgp.predict_joint" if run.workload.two_stage == "gp-mala"
                  else "kernelgp.predict")
    stage1 = row("acceptance.stage1")
    chain_wall = sum(c.wall_s for c in two)
    passes = sum(int(c.trace.stage1_accepted.sum()) for c in two)
    exact = sum(int(c.trace.full_eval.sum()) for c in two)
    moved = sum(int(c.trace.stage2_accepted.sum()) for c in two)
    metrics = {
        "targets.evals": row("targets.eval")["calls"],
        "targets.eval_s": row("targets.eval")["s"],
        "targets.eval_ms": eval_ms,
        "targets.make_s": row("targets.make")["s"],
        "kernelgp.refit.calls": refit["calls"],
        "kernelgp.refit.s": refit["s"],
        "kernelgp.refit.objective_calls": row("kernelgp.refit.objective")["calls"],
        "kernelgp.refit.improved_frac": _frac(refit["flags"].get("improved", 0), refit["calls"]),
        "kernelgp.fit.calls": row("kernelgp.fit")["calls"],
        "kernelgp.fit.self_s": row("kernelgp.fit")["self_s"],
        "kernelgp.recentre.calls": recentre["calls"],
        "kernelgp.recentre.s": recentre["s"],
        "kernelgp.recentre.noop_frac": _frac(recentre["flags"].get("noop", 0), recentre["calls"]),
        "kernelgp.append.calls": row("kernelgp.append")["calls"],
        "kernelgp.append.s": row("kernelgp.append")["s"],
        "kernelgp.train_size": max((c.trace.ledger_size for c in two), default=0),
        "kernelgp.predict.calls": predict["calls"],
        "kernelgp.predict.s": predict["s"],
        "kernelgp.ill_conditioned": ill_conditioned_count(t),
        "acceptance.stage1.calls": stage1["calls"],
        "acceptance.stage1.s": stage1["s"],
        "acceptance.stage2.calls": row("acceptance.stage2")["calls"],
        "acceptance.stage2.s": row("acceptance.stage2")["s"],
        "acceptance.stage1_pass_frac": _frac(passes, stage1["calls"]),
        "acceptance.stage2_given_stage1": _frac(moved, exact),
        "samplers.self_s": row("samplers.driver")["self_s"] + row("samplers.init_ledger")["self_s"],
        "samplers.init_s": row("samplers.init_ledger")["s"],
        "samplers.iters_per_s": _frac(len(two) * run.iters, chain_wall),
        "diagnostics.build_metrics_s": row("diagnostics.build_metrics")["s"],
        "bench.self_s": row("bench.execute_replicate")["self_s"],
        "baseline.targets.evals": brow("targets.eval")["calls"],
        "baseline.targets.eval_s": brow("targets.eval")["s"],
        "baseline.samplers.self_s": brow("samplers.driver")["self_s"],
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    roots = [c for c in run.chains if c.finished]
    root_wall = sum(rec.ends[c.spans[0]] - rec.starts[c.spans[0]] for c in roots)
    n_spans = sum(hi - lo for lo, hi in (c.spans for c in roots))
    metrics["trace.span_cost_frac"] = n_spans * span_cost_s() / root_wall
    self_sum = sum(float(rec.self_times(*c.spans).sum()) for c in roots)
    return metrics, abs(self_sum - root_wall) / root_wall
