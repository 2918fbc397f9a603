"""Cost per effective sample of the surrogate-screened samplers.

Run from the repository root:

    python3 perfbench/run.py --workload t5-joint --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The package is imported from ``src/`` of the same checkout;
without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SPANS_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; sets how many panel seeds run")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--iters", type=int, default=None,
                   help="chain length (default 2500); the smoke test shortens it")
    return p.parse_args(argv)


def die(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Put this checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "surrogate_mcmc" / "__init__.py").is_file():
        die(f"{src}/surrogate_mcmc not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import surrogate_mcmc
    if Path(surrogate_mcmc.__file__).resolve().parent != (src / "surrogate_mcmc").resolve():
        die(f"imported surrogate_mcmc from {surrogate_mcmc.__file__}")


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declared_units(view: str) -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[view]}


def report(lines, metrics: dict, units: dict, *, attempted: int, failed: int):
    for name in units:
        value = metrics[name]
        shown = "never" if name == "breakeven_eval_ms" and value >= 1e12 else f"{value:.6g}"
        lines.append(f"  {name:<46} {shown} {units[name]}")
    lines.append(f"  {'fail_frac':<46} {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} chains)")
    for line in lines:
        print(line)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import_package()

    import harness
    from probes import run_probes
    from tracing import SpanRecorder

    if args.workload not in harness.WORKLOADS:
        die(f"unknown workload {args.workload!r}; expected one of {sorted(harness.WORKLOADS)}")
    workload = harness.WORKLOADS[args.workload]
    iters = args.iters or harness.DEFAULT_ITERS
    n_seeds = harness.panel_size(workload, args.seconds)
    lines = [f"workload {workload.name}: {workload.target} {workload.two_stage} vs "
             f"{workload.baseline}, ledger_cap={workload.ledger_cap}, {iters} iterations, "
             f"panel seeds {harness.PANEL_FIRST_SEED}..{harness.PANEL_FIRST_SEED + n_seeds - 1}",
             f"blas threads {BLAS_THREADS} (nproc {os.cpu_count()}), one chain at a time"]

    chains = []
    if args.trace:
        reference = harness.run_panel(workload, 1, iters)
        rec = SpanRecorder()
        run = harness.run_panel(workload, n_seeds, iters, recorder=rec)
        chains += reference.chains
    else:
        run = harness.run_panel(workload, n_seeds, iters)
    chains += run.chains
    lines += ["check: " + c for c in run.checks]
    # After the panel, so that its short chains cannot shape the heap the
    # panel's peak memory is measured on.
    det_seed = harness.determinism_seed(args.seed, n_seeds)
    repeat, detail = harness.check_determinism(workload, det_seed)
    chains += repeat
    lines.append(f"check: same-seed repeat (seed {det_seed}, "
                 f"{harness.DETERMINISM_ITERS} iterations): {detail}")
    failures = [c for c in chains if not c.ok]
    for c in failures:
        lines.append(f"failed: {c.algo} seed {c.seed}: {c.error or c.check_failure}")

    if not run.pairs():
        for line in lines:
            print(line)
        print("error: no seed finished on both samplers", file=sys.stderr)
        return 1
    if args.trace:
        eval_ms = harness.replay_eval_ms(workload, [c for c in run.two if c.finished])
        untraced = sum(c.wall_s for c in (reference.two[0], reference.base[0]) if c.finished)
        traced = sum(c.wall_s for c in (run.two[0], run.base[0]) if c.finished)
        metrics, gap = harness.per_layer(run, rec, eval_ms, untraced, traced)
        metrics.update(run_probes(args.seed))
        lines.append(f"check: layer self times sum to the traced replicate wall time "
                     f"within {gap:.1e} of it; tracing adds {metrics['trace.span_cost_frac']:.2%} "
                     f"by span count x wrapper cost, {metrics['trace.overhead_frac']:+.2%} "
                     "measured against one untraced seed")
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans_{workload.name}_seed{args.seed}.csv"
        rec.write_csv(spans_path, {c.spans[0]: f"{c.algo}:{c.seed}" for c in run.chains if c.finished})
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
        units = declared_units("per_layer")
    else:
        metrics = harness.end_to_end(run, peak_rss_mb(), len(chains), len(failures))
        units = declared_units("end_to_end")
    report(lines, metrics, units, attempted=len(chains), failed=len(failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
