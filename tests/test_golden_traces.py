"""Golden traces: the four samplers reproduce recorded chains exactly.

Each case runs a short seeded chain and compares the SHA-256 of its trace
CSV (``bench.trace_csv_text``), the target's exact-evaluation count and the
final ledger size against recorded values. They were first recorded before
the samplers were folded into one exact loop and one two-stage loop, and
regenerated when the surrogate switched to whitened targets, which moved
the two-stage log-alpha columns by at most 7e-7 and no decision. Refits run every 10 ledger
growths during burn-in, and gp-mala caps the ledger at 60 so the cap is
hit. The t2 cases start inside a bounded prior and reach the -inf branches
(rejected prior, -inf likelihood) many times per chain.

A second digest per case covers the chain's decisions only: the states,
the stage-1 and stage-2 accept flags and the exact-evaluation flags, with
the same evaluation count and ledger size. It leaves out the log-alpha
columns, so it holds across a change that moves the surrogate's last bits
without changing a single decision, and such a change must keep it as it
is.

The cases run in a child Python started with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, so the table does not depend
on the BLAS thread count: with more threads a BLAS call can sum in another
order, and the gp-mala log-alpha columns move in their last bits. The
variables act only if set before numpy loads, which a fresh interpreter
guarantees; the child also reports the thread count of each OpenBLAS it
loaded, and every test fails unless each count is 1. The four gp-mala CSV
hashes were regenerated when this pin was added (they had been recorded
under the BLAS default thread count); every other entry stayed as it was.
The ten two-stage CSV hashes were regenerated again when a fit began to
factor the kernel matrix in place with scipy's LAPACK potrf (in place of
numpy's cholesky on a jittered copy), to assemble the scalar kernel matrix
one input dimension at a time, and to solve both whitened vectors in one
call. That moved the log-alpha columns by at most 9.2e-5 (t2 gp-mala,
seed 3) and no decision: every ``GOLDEN_DECISIONS`` entry stayed as it was.

The hashes pin this machine's floating-point numerics (numpy, BLAS and
scipy builds). Regenerate them only in a change that alters the numerics
on purpose and passes the statistical criteria in ``test_acceptance.py``
instead; print a fresh table, computed under the same pin, with

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import ctypes
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from surrogate_mcmc import bench
from surrogate_mcmc.acceptance import MalaProposalParams
from surrogate_mcmc.samplers import SamplerConfig
from surrogate_mcmc.targets import make_target

N_ITERS = 400
N_BURNIN = 200
HYPER_UPDATE_EVERY = 10
GP_MALA_LEDGER_CAP = 60
ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                           "1")
CHILD_FLAG = "--pinned-child"

CASES = ([("t5", algo, seed) for algo in ("mh", "mala", "gp-mh", "gp-mala")
          for seed in (0, 1)]
         + [("t2", algo, seed) for algo in ("mh", "mala", "gp-mh", "gp-mala")
            for seed in (0, 3)]
         + [("t4", "mh", 0), ("t4", "gp-mh", 0), ("t1", "mh", 0), ("t1", "gp-mh", 0)])

# (target, algo, seed) -> (sha256 of the trace CSV, exact evaluations, ledger size)
GOLDEN = {
    ('t5', 'mh', 0): ('8698978f8edcf1f01decd566af180c09d9f372bb658310262c81839ec7e2f99c', 401, 0),
    ('t5', 'mh', 1): ('70fb3c3abd921338f14a9a881f23e7bab51450892f49b86fd43a2ddc7718cff0', 401, 0),
    ('t5', 'mala', 0): ('0b783e4459060a19a2e5819d68cfc5d35b8d59b3189e80fcfa718b9bbedc84e2', 401, 0),
    ('t5', 'mala', 1): ('efef5731dace6dad805eae2ff0d751f2eff7d2b23ea006c2a621f53adc64a16e', 401, 0),
    ('t5', 'gp-mh', 0): ('de1568a30adf2cf564d2cdea62233ce7027ffeb7c8a647f6b2578f4f12045af9', 180, 180),
    ('t5', 'gp-mh', 1): ('f547fc26d16e38578f76302d8b813afb3cafc0cd385326d60e10d20bd68efd6c', 246, 246),
    ('t5', 'gp-mala', 0): ('8d58551121e39b43dbd08eecf2fcd2041a911bfc91453639a6d4a9ba9c5c50dc', 230, 60),
    ('t5', 'gp-mala', 1): ('f72d64c7b8310c62b6fc9180699ea6d32ddae0996fca1d126c15c644b6ab0e5a', 345, 60),
    ('t2', 'mh', 0): ('0c6cf0e70bf76db2ab457536881f547ba1c6c3383bb2cf007ce8cd6b972131f9', 401, 0),
    ('t2', 'mh', 3): ('1fa415d79cf574fdf923cc4c99a1b0cddde85c2686ca815bdfc32d275e643446', 401, 0),
    ('t2', 'mala', 0): ('3cb63dde3391f10d7c9ed57d602cdcdcc24c0f4c18085423ce344e163525b45d', 401, 0),
    ('t2', 'mala', 3): ('396e82a5a4c018a9f62671dd4dd81187372547679b57a3b7b4df8fec1dd81320', 401, 0),
    ('t2', 'gp-mh', 0): ('962146ade84ec99dcad30a1f680688c22f8947e99d68a30a1e084dfc4e563cf8', 370, 370),
    ('t2', 'gp-mh', 3): ('1f4294bf97d54ee271bec737931bd5687935c1ef3208d2657636735d14d1d994', 175, 175),
    ('t2', 'gp-mala', 0): ('4f77580e802b43978ce1ecd354d59f93746beccb6c4d8c472054fc149b4f2e25', 216, 60),
    ('t2', 'gp-mala', 3): ('f378d47330b1579e5928a26eb77d9db9704b910fa08e80693c983fd5d15dcb2d', 346, 60),
    ('t4', 'mh', 0): ('88a9ed0ab4e9b270ccb7ad90aefaea9833325766900fa8c04d448bc4348a69a6', 401, 0),
    ('t4', 'gp-mh', 0): ('6fd01f98310adb60619527ee7c713d0406beeb84eb29bc6374117f429491f12f', 85, 85),
    ('t1', 'mh', 0): ('6981bb2f73253ce0481a29fa87774d951512f92c7824d1bcb9777fd35a727945', 401, 0),
    ('t1', 'gp-mh', 0): ('e7a49f2bb97f6c0e15ad71edcea27b03da158d1533d02ceb63c98421e5ead9a6', 178, 178),
}

# (target, algo, seed) -> (sha256 of the decision columns, exact evaluations,
# ledger size)
GOLDEN_DECISIONS = {
    ('t5', 'mh', 0): ('a9cd02b0b1d7a220afa594dc82fb14fe3947619c566ba041185f5807b37696cf', 401, 0),
    ('t5', 'mh', 1): ('fac778b27da4896518f001f9b61eb7eb750292e41846b8fb9700de39d994bf3b', 401, 0),
    ('t5', 'mala', 0): ('bf89470dc5177228e977255ae9f93fe13d3d531bad1ef195b5029741a04258f4', 401, 0),
    ('t5', 'mala', 1): ('238f721368feb6e649cbfa53aa61a90919a37ea2027b45274e161b4e8df4e5c7', 401, 0),
    ('t5', 'gp-mh', 0): ('368c8826e89eb51effe0b6fbc317a9abc6b209535dc4603cc87c18dfc7822f6b', 180, 180),
    ('t5', 'gp-mh', 1): ('e821e162d5b0e3af0d10dff352124853c92e8e2a9c2b3252db6fc2fd41681d3d', 246, 246),
    ('t5', 'gp-mala', 0): ('cca46ee5421759c0215f187ae24b8a571a09148527d29b88adee2d0ea5a8e15c', 230, 60),
    ('t5', 'gp-mala', 1): ('b3d70d2595648e722ad36a187ebc0a1045d856080bc215c55d4ec3901cdc8be9', 345, 60),
    ('t2', 'mh', 0): ('a0b9308bcbcaae1732ad306e79313f023fe400e6eaea1d48e7a29a92bb8087db', 401, 0),
    ('t2', 'mh', 3): ('2e4a212e56df4d8dae25b49d8ca7853286baca625f12fa84592f4235f7eff4b1', 401, 0),
    ('t2', 'mala', 0): ('e5145bece4c7466b8ea74c81af03fee79f7c169ec2a27715dae332078e28afb2', 401, 0),
    ('t2', 'mala', 3): ('f21d75026dd9154326096f35e3fd735eb889cb2942f3dbe2f7dfc7570065e18f', 401, 0),
    ('t2', 'gp-mh', 0): ('f701fd83783e45f9375eb7e1f35805e21787d2225e0fd0439e561d2dcef6db67', 370, 370),
    ('t2', 'gp-mh', 3): ('9c25e021f66910575f8a377d8f3cc08b1d71c083a9a961add3c3a5f0b2d9c156', 175, 175),
    ('t2', 'gp-mala', 0): ('358ad93d60f5545120d83806a5084c0d00e984fcf64b2274ea18cb2d951c3f32', 216, 60),
    ('t2', 'gp-mala', 3): ('4f92b99b26bbc08fff23500bccc9f54d2c3314b112532b76f45a056fb9da4632', 346, 60),
    ('t4', 'mh', 0): ('de999a84413c1efdc2a0ceb778317c31788be48bcd248054d6b25fccf6dd17bb', 401, 0),
    ('t4', 'gp-mh', 0): ('fb3f72b010eacc43e0bc68557a77b2d92d34f7faebf60d1c155a7b906837de18', 85, 85),
    ('t1', 'mh', 0): ('3b9261e63a727eb0e2dcabcf4497f0f224c27fd63812c169c0de93bc4007267c', 401, 0),
    ('t1', 'gp-mh', 0): ('874d62fca08deca8c21bb5a1be7835f63c630d68875804ac3a9b380cc3d450f6', 178, 178),
}


def run_case(name: str, algo: str, seed: int):
    """(CSV digest, decision digest, exact evaluations, ledger size)."""
    target = make_target(name, seed=seed)
    scales = target.proposal_scales
    mala = (MalaProposalParams.diagonal(target.mala_step, scales ** 2)
            if algo in bench.GRADIENT_ALGOS else None)
    config = SamplerConfig(proposal_scales=scales, n_iters=N_ITERS, n_burnin=N_BURNIN,
                           mala=mala, hyper_update_every=HYPER_UPDATE_EVERY,
                           ledger_cap=GP_MALA_LEDGER_CAP if algo == "gp-mala" else None,
                           seed=seed)
    theta0 = target.initial_point(np.random.default_rng(seed))
    trace = bench.ALGORITHMS[algo](target, config, theta0)
    digest = hashlib.sha256(bench.trace_csv_text(trace).encode("utf-8")).hexdigest()
    decisions = hashlib.sha256()
    for column in (trace.thetas, trace.stage1_accepted, trace.stage2_accepted,
                   trace.full_eval):
        decisions.update(np.ascontiguousarray(column).tobytes())
    return digest, decisions.hexdigest(), target.eval_count, trace.ledger_size


def openblas_threads() -> list:
    """The thread count of each OpenBLAS this process has loaded, asked of
    the library itself; empty where the loaded libraries cannot be listed."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get_num_threads = getattr(lib, name)
                get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
                counts.append(get_num_threads())
                break
    return counts


@functools.lru_cache(maxsize=None)
def run_pinned_child() -> subprocess.CompletedProcess:
    """Run this file as a child interpreter whose BLAS runs one thread."""
    env = {**os.environ, **ONE_THREAD}
    src = str(Path(bench.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, __file__, CHILD_FLAG], env=env,
                          capture_output=True, text=True, timeout=900)


def pinned_results() -> dict:
    """Every case's ``run_case`` result, as the one-thread child computed it."""
    proc = run_pinned_child()
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    threads = doc["openblas_threads"]
    assert threads and set(threads) == {1}, f"one-thread BLAS not confirmed: {threads}"
    return {tuple(case): tuple(result) for case, result in doc["cases"]}


@pytest.mark.parametrize("name,algo,seed", CASES)
def test_trace_matches_golden(name, algo, seed):
    digest, _, evals, ledger_size = pinned_results()[(name, algo, seed)]
    assert (digest, evals, ledger_size) == GOLDEN[(name, algo, seed)]


@pytest.mark.parametrize("name,algo,seed", CASES)
def test_decisions_match_golden(name, algo, seed):
    _, decisions, evals, ledger_size = pinned_results()[(name, algo, seed)]
    assert (decisions, evals, ledger_size) == GOLDEN_DECISIONS[(name, algo, seed)]


if __name__ == "__main__":
    if sys.argv[1:] == [CHILD_FLAG]:
        print(json.dumps({"openblas_threads": openblas_threads(),
                          "cases": [[case, run_case(*case)] for case in CASES]}))
        sys.exit()
    results = pinned_results()
    print("GOLDEN = {")
    for case, (digest, _, evals, ledger_size) in results.items():
        print(f"    {case!r}: {(digest, evals, ledger_size)!r},")
    print("}")
    print("GOLDEN_DECISIONS = {")
    for case, (_, decisions, evals, ledger_size) in results.items():
        print(f"    {case!r}: {(decisions, evals, ledger_size)!r},")
    print("}")
