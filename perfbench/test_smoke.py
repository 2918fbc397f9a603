"""Smoke test of the benchmark at a tiny chain length.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced and checks that the result line
names exactly the metrics and units of BENCHMARK.json; also checks the
span bookkeeping and that the script refuses to run without the package.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(HERE / "run.py")]
# Long enough that the slowest-moving chain (t4 gp-mh) leaves its start.
SMOKE_ITERS = "400"


def _run(cwd, *args):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,view", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace, view):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--iters", SMOKE_ITERS)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in SPEC[view]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name
    for name in declared:
        assert name in proc.stdout.replace(proc.stdout.strip().splitlines()[-1], "")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "t4-costly",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_nested_fits_are_refit_children_and_self_times_add_up():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from surrogate_mcmc import kernelgp
    from surrogate_mcmc.kernelgp import Evaluation, EvaluationLedger, KernelHyper
    from tracing import SpanRecorder, instrument, layer_totals

    rng = np.random.default_rng(0)
    ledger = EvaluationLedger(Evaluation(theta=t, log_lik=-0.5 * float(t @ t))
                              for t in rng.standard_normal((12, 2)))
    hyper = KernelHyper(lengthscales=np.ones(2), signal_variance=1.0)
    rec = SpanRecorder()
    with instrument(rec.replacements()):
        gp = rec.span("root", lambda: kernelgp.fit(
            ledger, kernelgp.optimize_hypers(ledger, hyper, 0.0, 20), 0.0))
        gp.with_prior_mean(gp.prior_mean)
    assert kernelgp.fit.__name__ == "fit" and not hasattr(kernelgp.fit, "__wrapped__")
    totals = layer_totals(rec, [(0, len(rec))])
    assert totals["kernelgp.fit"]["calls"] == 1
    assert totals["kernelgp.refit.objective"]["calls"] >= 2
    assert totals["kernelgp.recentre"]["flags"] == {"noop": 1}
    root = rec.ends[0] - rec.starts[0]
    assert abs(rec.self_times(0, len(rec))[:-1].sum() - root) <= 1e-9 * max(root, 1.0)
