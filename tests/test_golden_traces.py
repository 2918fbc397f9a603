"""Golden traces: the four samplers reproduce recorded chains exactly.

Each case runs a short seeded chain and compares the SHA-256 of its trace
CSV (``bench.trace_csv_text``), the target's exact-evaluation count and the
final ledger size against values recorded before the samplers were folded
into one exact loop and one two-stage loop. Refits run every 10 ledger
growths during burn-in, and gp-mala caps the ledger at 60 so the cap is
hit. The t2 cases start inside a bounded prior and reach the -inf branches
(rejected prior, -inf likelihood) many times per chain.

The hashes pin this machine's floating-point numerics (numpy, BLAS and
scipy builds). Regenerate them only in a change that alters the numerics
on purpose and passes the statistical criteria in ``test_acceptance.py``
instead; print a fresh table with

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import hashlib

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
    ('t5', 'gp-mh', 0): ('c7f12e6ec6922848df3de6795a1c66b8c4378bde9c59c304fa9655b80180ab5b', 180, 180),
    ('t5', 'gp-mh', 1): ('1ded8df5a42e70167339652bc95259c7215de4d60769f653be73b3beaffcfcab', 246, 246),
    ('t5', 'gp-mala', 0): ('0ef7484a0ac85c4dc41ed203b0b8245bad9214f666fc0e4f3c325dffeb008142', 230, 60),
    ('t5', 'gp-mala', 1): ('6ac91a6c5e354ef644dd4c7f64bd13c293120294b66ccee55587d3a2110af0ba', 345, 60),
    ('t2', 'mh', 0): ('0c6cf0e70bf76db2ab457536881f547ba1c6c3383bb2cf007ce8cd6b972131f9', 401, 0),
    ('t2', 'mh', 3): ('1fa415d79cf574fdf923cc4c99a1b0cddde85c2686ca815bdfc32d275e643446', 401, 0),
    ('t2', 'mala', 0): ('3cb63dde3391f10d7c9ed57d602cdcdcc24c0f4c18085423ce344e163525b45d', 401, 0),
    ('t2', 'mala', 3): ('396e82a5a4c018a9f62671dd4dd81187372547679b57a3b7b4df8fec1dd81320', 401, 0),
    ('t2', 'gp-mh', 0): ('c703ff7eedab0a7106724156c70d0722ac1964a200349b48a87c0841fcc3c5b1', 370, 370),
    ('t2', 'gp-mh', 3): ('11119dc3a79df3e2d5cd56f348ccf6d29eb32dd1cce181e93004e8344e2b277a', 175, 175),
    ('t2', 'gp-mala', 0): ('7b0e652866af0c13d631a5e1fa2bebc88a2eef3af6029a56eedffd066a5cf384', 216, 60),
    ('t2', 'gp-mala', 3): ('a937ab368ada97d7cfe08d3a09c81b5657c11cc997f4bac35b7e2b603857f637', 346, 60),
    ('t4', 'mh', 0): ('88a9ed0ab4e9b270ccb7ad90aefaea9833325766900fa8c04d448bc4348a69a6', 401, 0),
    ('t4', 'gp-mh', 0): ('97d05a6f077ac531e95b1608dd7a30a38eb9a93dabeaea2b7027c5eb36173833', 85, 85),
    ('t1', 'mh', 0): ('6981bb2f73253ce0481a29fa87774d951512f92c7824d1bcb9777fd35a727945', 401, 0),
    ('t1', 'gp-mh', 0): ('5b78cc5f06566c799858cebc4043fbd8a9044403fd6f584dae01a7c000b160c0', 178, 178),
}


def run_case(name: str, algo: str, seed: int):
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
    return digest, target.eval_count, trace.ledger_size


@pytest.mark.parametrize("name,algo,seed", CASES)
def test_trace_matches_golden(name, algo, seed):
    assert run_case(name, algo, seed) == GOLDEN[(name, algo, seed)]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {run_case(*case)!r},")
