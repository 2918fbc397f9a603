"""Benchmark harness behind the CLI: config resolution, seeded replicate
execution (optionally in parallel workers), trace/metrics serialization, and
comparison-table reporting.

File formats are frozen here:
  * trace CSV columns: iter, theta_0..theta_{d-1}, stage1_log_alpha,
    stage1_accepted, stage2_log_alpha, stage2_accepted, full_eval; floats use
    17 significant digits, booleans are 0/1, and stage-2 fields of iterations
    that never reached stage 2 are empty;
  * metrics JSON carries a schema_version; readers reject other majors.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from .acceptance import MalaProposalParams
from .diagnostics import MetricsReport, aggregate_metrics, build_metrics
from .samplers import SamplerConfig, run_gp_mala, run_gp_mh, run_mala, run_mh
from .targets import make_target

SCHEMA_VERSION = "1.2"
SEED_ENV_VAR = "SURROGATE_MCMC_SEED"

ALGORITHMS = {"mh": run_mh, "mala": run_mala, "gp-mh": run_gp_mh, "gp-mala": run_gp_mala}
GRADIENT_ALGOS = frozenset({"mala", "gp-mala"})

_METRIC_KEYS = ("acceptance_rate", "ess", "esjd", "eval_pct", "sd")


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit status 2."""


class SchemaError(ConfigError):
    """Metrics file does not match the expected schema."""


def parse_scales(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad proposal_scales {text!r}: {exc}") from None
    if not values:
        raise ConfigError("proposal_scales is empty")
    return values


def parse_algos(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Setting:
    """How one RunConfig field is spelled outside the program: key ``key``
    under ``[section]`` of the INI file, and flag ``--key`` with ``_``
    written as ``-``. ``parse`` turns the text of either into the value;
    bench-only settings have no ``run`` flag."""

    section: str
    key: str
    parse: Callable[[str], object]
    help: str
    metavar: str | None = None
    bench_only: bool = False


def _setting(default, section, key, parse, help, **kw):
    return field(default=default,
                 metadata={"setting": Setting(section, key, parse, help, **kw)})


@dataclass
class RunConfig:
    """Fully resolved settings for a run or bench invocation.

    Each field declares its INI key and flag; the CLI and the config file
    reader are generated from these declarations, in this order.
    """

    target: str = _setting("t1", "run", "target", str, "target name (t1..t5)")
    algos: tuple = _setting(("gp-mh",), "run", "algo", parse_algos,
                            "mh, mala, gp-mh or gp-mala; repeat or "
                            "comma-separate for bench", metavar="NAME")
    n_iters: int = _setting(SamplerConfig.n_iters, "sampler", "iters", int,
                            "total iterations per chain")
    n_burnin: int = _setting(SamplerConfig.n_burnin, "sampler", "burnin", int,
                             "burn-in iterations")
    seed: int = _setting(SamplerConfig.seed, "sampler", "seed", int,
                         f"base seed (env {SEED_ENV_VAR} wins)")
    scale: int | None = _setting(None, "run", "scale", int,
                                 "dataset size knob (t3, t5)")
    out_dir: str = _setting(".", "run", "out", str, "output directory")
    proposal_scales: tuple | None = _setting(
        None, "sampler", "proposal_scales", parse_scales,
        "per-dimension proposal standard deviations", metavar="S0,S1,...")
    mala_step: float | None = _setting(None, "sampler", "mala_step", float,
                                       "Langevin step size")
    gp_init_count: int = _setting(SamplerConfig.gp_init_count, "sampler",
                                  "gp_init_count", int,
                                  "initial surrogate design size")
    hyper_update_every: int = _setting(
        SamplerConfig.hyper_update_every, "sampler", "hyper_update_every", int,
        "ledger growths between hyperparameter refits")
    hyper_opt_budget: int = _setting(
        SamplerConfig.hyper_opt_budget, "sampler", "hyper_opt_budget", int,
        "objective evaluations per hyperparameter refit")
    ledger_cap: int | None = _setting(SamplerConfig.ledger_cap, "sampler",
                                      "ledger_cap", int,
                                      "maximum surrogate training size")
    eval_denominator: int | None = _setting(
        None, "sampler", "eval_denominator", int,
        "iteration count the evaluation percentage is taken against "
        "(default: total iterations)")
    replicates: int = _setting(1, "run", "replicates", int, "chains per algo",
                               bench_only=True)
    workers: int = _setting(1, "run", "workers", int,
                            "parallel worker processes", bench_only=True)
    save_traces: bool = _setting(False, "run", "save_traces", parse_bool,
                                 "also write per-replicate trace CSVs",
                                 bench_only=True)

    def __post_init__(self):
        self.algos = tuple(self.algos)
        for algo in self.algos:
            if algo not in ALGORITHMS:
                raise ConfigError(f"unknown algo {algo!r}; expected one of "
                                  f"{sorted(ALGORITHMS)}")
        if not self.algos:
            raise ConfigError("at least one algo is required")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.eval_denominator is not None and self.eval_denominator < 1:
            raise ConfigError("eval_denominator must be at least 1")
        if self.mala_step is not None and not (math.isfinite(self.mala_step)
                                               and self.mala_step > 0):
            raise ConfigError("mala_step must be finite and positive")
        if self.scale is not None and self.scale < 1:
            raise ConfigError("scale must be at least 1")


SETTINGS = {f.name: f.metadata["setting"] for f in fields(RunConfig)}


# ---------------------------------------------------------------------------
# config file + flag merging

def load_config_file(path: str) -> dict:
    """Read an INI-style config into RunConfig field overrides.

    Values are taken literally and an empty value leaves its setting unset.
    Unknown sections or keys are rejected so typos fail loudly.
    """
    # no header can name the empty section, so [DEFAULT] stays an ordinary
    # (unknown) section instead of leaking its keys into every other one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    by_key = {(s.section, s.key): name for name, s in SETTINGS.items()}
    overrides = {}
    for section in parser.sections():
        if not any(s.section == section for s in SETTINGS.values()):
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in by_key:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            name, raw = by_key[(section, key)], raw.strip()
            if raw:
                try:
                    overrides[name] = SETTINGS[name].parse(raw)
                except ConfigError:
                    raise
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from None
    return overrides


def resolve_config(file_overrides: dict, flag_overrides: dict,
                   env: dict | None = None) -> RunConfig:
    """Merge precedence: defaults < config file < CLI flags < seed env var."""
    merged = dict(file_overrides)
    merged.update({k: v for k, v in flag_overrides.items() if v is not None})
    env = os.environ if env is None else env
    if SEED_ENV_VAR in env:
        raw = env[SEED_ENV_VAR]
        try:
            merged["seed"] = int(raw)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    unknown = set(merged) - SETTINGS.keys()
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        return RunConfig(**merged)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# serialization

def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: float) -> str:
    return "%.17g" % value


def trace_csv_text(trace) -> str:
    header = (["iter"] + [f"theta_{j}" for j in range(trace.dim)]
              + ["stage1_log_alpha", "stage1_accepted", "stage2_log_alpha",
                 "stage2_accepted", "full_eval"])
    lines = [",".join(header)]
    for k in range(trace.n_iters):
        row = [str(k)]
        row.extend(_fmt(v) for v in trace.thetas[k])
        row.append(_fmt(trace.stage1_log_alpha[k]))
        row.append("1" if trace.stage1_accepted[k] else "0")
        if math.isnan(trace.stage2_log_alpha[k]):
            row.extend(["", ""])
        else:
            row.append(_fmt(trace.stage2_log_alpha[k]))
            row.append("1" if trace.stage2_accepted[k] else "0")
        row.append("1" if trace.full_eval[k] else "0")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_trace_csv(path: str, trace) -> None:
    _atomic_write(path, trace_csv_text(trace))


def read_trace_csv(path: str) -> dict:
    """Parse a trace CSV back into arrays; absent stage-2 fields become
    NaN / False."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = lines[0].split(",")
    dim = sum(1 for name in header if name.startswith("theta_"))
    rows = [ln.split(",") for ln in lines[1:]]
    n = len(rows)
    out = {
        "thetas": np.empty((n, dim)),
        "stage1_log_alpha": np.empty(n),
        "stage1_accepted": np.zeros(n, dtype=bool),
        "stage2_log_alpha": np.full(n, np.nan),
        "stage2_accepted": np.zeros(n, dtype=bool),
        "full_eval": np.zeros(n, dtype=bool),
    }
    for i, row in enumerate(rows):
        out["thetas"][i] = [float(v) for v in row[1:1 + dim]]
        out["stage1_log_alpha"][i] = float(row[1 + dim])
        out["stage1_accepted"][i] = row[2 + dim] == "1"
        if row[3 + dim] != "":
            out["stage2_log_alpha"][i] = float(row[3 + dim])
            out["stage2_accepted"][i] = row[4 + dim] == "1"
        out["full_eval"][i] = row[5 + dim] == "1"
    return out


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path: str, obj) -> None:
    _atomic_write(path, json_text(obj))


def metrics_entry(target: str, algo: str, seed: int, report: MetricsReport) -> dict:
    body = report.to_dict()
    return {"schema_version": SCHEMA_VERSION, "target": target, "algo": algo,
            "seed": seed, "metrics": body}


def _check_schema_version(doc: dict, path: str) -> None:
    version = doc.get("schema_version")
    if not isinstance(version, str) or "." not in version:
        raise SchemaError(f"{path}: missing field schema_version")
    major = version.split(".", 1)[0]
    if major != SCHEMA_VERSION.split(".", 1)[0]:
        raise SchemaError(f"{path}: unsupported schema major version {version}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_entry(entry: dict, path: str) -> None:
    if not isinstance(entry, dict):
        raise SchemaError(f"{path}: each entry must be a JSON object")
    for key in ("target", "algo", "seed", "metrics"):
        if key not in entry:
            raise SchemaError(f"{path}: missing field {key}")
    metrics = entry["metrics"]
    if not isinstance(metrics, dict):
        raise SchemaError(f"{path}: field metrics must be a JSON object")
    for key in _METRIC_KEYS:
        if key not in metrics:
            raise SchemaError(f"{path}: missing field metrics.{key}")
        value = metrics[key]
        values = value if key == "ess" and isinstance(value, list) and value else [value]
        if not all(_is_number(v) for v in values):
            raise SchemaError(f"{path}: field metrics.{key} must be numeric")


def load_metrics_file(path: str) -> list:
    """Return the entries of a single-run or merged metrics JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    _check_schema_version(doc, path)
    entries = doc["entries"] if "entries" in doc else [doc]
    if not isinstance(entries, list):
        raise SchemaError(f"{path}: field entries must be a JSON array")
    for entry in entries:
        _validate_entry(entry, path)
    return entries


# ---------------------------------------------------------------------------
# execution

def _init_rng(seed: int) -> np.random.Generator:
    # distinct stream from the chain RNG so theta0 draws never alias proposals
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=int(seed) % (1 << 64), spawn_key=(1,))))


def _make_target_checked(cfg: RunConfig, data_seed: int):
    try:
        return make_target(cfg.target, seed=data_seed, scale=cfg.scale)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _sampler_config(cfg: RunConfig, target, algo: str, chain_seed: int) -> SamplerConfig:
    scales = cfg.proposal_scales
    if scales is None:
        scales = target.proposal_scales
    scales = np.asarray(scales, dtype=float)
    if scales.shape != (target.dim,):
        raise ConfigError(f"proposal_scales needs {target.dim} entries for "
                          f"{target.name}, got {scales.shape[0]}")
    step = None
    if algo in GRADIENT_ALGOS:
        if not target.has_gradient:
            raise ConfigError(f"algo {algo} needs gradients, which target "
                              f"{target.name} does not provide")
        step = cfg.mala_step if cfg.mala_step is not None else target.mala_step
        if step is None:
            raise ConfigError(f"target {target.name} has no default mala step; "
                              "set mala_step explicitly")
    try:
        mala = None if step is None else MalaProposalParams.diagonal(step, scales ** 2)
        return SamplerConfig(proposal_scales=scales, n_iters=cfg.n_iters,
                             n_burnin=cfg.n_burnin, mala=mala,
                             gp_init_count=cfg.gp_init_count,
                             hyper_update_every=cfg.hyper_update_every,
                             hyper_opt_budget=cfg.hyper_opt_budget,
                             ledger_cap=cfg.ledger_cap, seed=chain_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def execute_replicate(cfg: RunConfig, algo: str, replicate: int,
                      trace_path: str | None = None) -> dict:
    """Run one seeded chain and return its metrics entry.

    The target is rebuilt here with its own per-replicate data seed, so the
    call is self-contained and safe to ship to a worker process.
    """
    chain_seed = cfg.seed + replicate
    target = _make_target_checked(cfg, chain_seed)
    sampler = _sampler_config(cfg, target, algo, chain_seed)
    theta0 = target.initial_point(_init_rng(chain_seed))
    trace = ALGORITHMS[algo](target, sampler, theta0)
    if trace.two_stage and trace.n_full_evals != target.eval_count:
        raise RuntimeError(f"evaluation accounting mismatch: trace says "
                           f"{trace.n_full_evals}, target counted {target.eval_count}")
    report = build_metrics(trace, target.true_params,
                           eval_denominator=cfg.eval_denominator)
    if trace_path is not None:
        write_trace_csv(trace_path, trace)
    return metrics_entry(cfg.target, algo, chain_seed, report)


def _trace_path(cfg: RunConfig, algo: str, replicate: int) -> str:
    return os.path.join(cfg.out_dir,
                        f"trace_{cfg.target}_{algo}_seed{cfg.seed + replicate}.csv")


def _metrics_path(cfg: RunConfig, algo: str, replicate: int) -> str:
    return os.path.join(cfg.out_dir,
                        f"metrics_{cfg.target}_{algo}_seed{cfg.seed + replicate}.json")


def cmd_run(cfg: RunConfig) -> int:
    """Single chain: write trace CSV plus metrics JSON and print their paths."""
    if len(cfg.algos) != 1:
        raise ConfigError("run takes exactly one algo")
    algo = cfg.algos[0]
    trace_path = _trace_path(cfg, algo, 0)
    entry = execute_replicate(cfg, algo, 0, trace_path=trace_path)
    metrics_path = _metrics_path(cfg, algo, 0)
    write_json(metrics_path, entry)
    print(trace_path)
    print(metrics_path)
    return 0


def _run_algo_replicates(cfg: RunConfig, algo: str) -> tuple[list, list]:
    """Run every replicate of one algo, in worker processes if asked.

    A chain that raises is recorded as a failure; a ConfigError aborts the
    bench whatever the worker count.
    """
    paths = [_trace_path(cfg, algo, r) if cfg.save_traces else None
             for r in range(cfg.replicates)]
    entries, failures = [], []
    with ExitStack() as stack:
        if cfg.workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=cfg.workers))
            calls = [pool.submit(execute_replicate, cfg, algo, r, path).result
                     for r, path in enumerate(paths)]
        else:
            calls = [partial(execute_replicate, cfg, algo, r, path)
                     for r, path in enumerate(paths)]
        for r, call in enumerate(calls):
            try:
                entries.append((r, call()))
            except ConfigError:
                raise
            except Exception as exc:
                failures.append({"replicate": r, "error": f"{type(exc).__name__}: {exc}"})
    return entries, failures


def cmd_bench(cfg: RunConfig) -> int:
    """Replicated comparison: per-replicate metrics files plus one summary."""
    # capability problems should abort before any replicate burns time
    probe = _make_target_checked(cfg, cfg.seed)
    for algo in cfg.algos:
        _sampler_config(cfg, probe, algo, cfg.seed)
    rows, all_failures = {}, {}
    n_total = n_failed = 0
    for algo in cfg.algos:
        entries, failures = _run_algo_replicates(cfg, algo)
        n_total += cfg.replicates
        n_failed += len(failures)
        for r, entry in entries:
            write_json(_metrics_path(cfg, algo, r), entry)
        if entries:
            rows[algo] = aggregate_metrics([entry["metrics"] for _, entry in entries])
        else:
            rows[algo] = {"n_replicates": 0, "mean": {}, "median": {}}
        rows[algo]["n_failures"] = len(failures)
        all_failures[algo] = failures
    summary = {"schema_version": SCHEMA_VERSION, "kind": "bench-summary",
               "target": cfg.target, "replicates": cfg.replicates,
               "base_seed": cfg.seed, "n_iters": cfg.n_iters,
               "n_burnin": cfg.n_burnin, "rows": rows, "failures": all_failures}
    summary_path = os.path.join(cfg.out_dir, f"summary_{cfg.target}.json")
    write_json(summary_path, summary)
    print(summary_path)
    for algo in cfg.algos:
        mean = rows[algo]["mean"]
        if mean:
            print(f"{cfg.target} {algo}: AR={mean['acceptance_rate']:.3f} "
                  f"ESS={mean['ess']:.1f} ESJD={mean['esjd']:.4g} "
                  f"Eval%={mean['eval_pct']:.1f} SD={mean['sd']:.4g} "
                  f"({rows[algo]['n_replicates']}/{cfg.replicates} replicates)")
        else:
            print(f"{cfg.target} {algo}: all replicates failed")
    if n_failed > 0.2 * n_total:
        return 1
    return 0


# ---------------------------------------------------------------------------
# reporting

def _table_text(entries: list) -> str:
    header = ["target", "algo", "seed", "AR", "ESS", "ESS_min", "ESJD",
              "Eval%", "SD"]
    body = []
    for entry in entries:
        m = entry["metrics"]
        ess = np.atleast_1d(np.asarray(m["ess"], dtype=float))
        body.append([str(entry["target"]), str(entry["algo"]), str(entry["seed"]),
                     f"{m['acceptance_rate']:.3f}", f"{float(ess.mean()):.1f}",
                     f"{float(ess.min()):.1f}", f"{m['esjd']:.4g}",
                     f"{m['eval_pct']:.1f}", f"{m['sd']:.4g}"])
    widths = [max(len(header[i]), *(len(row[i]) for row in body)) if body
              else len(header[i]) for i in range(len(header))]
    def fmt_row(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt_row(header), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(row) for row in body)
    return "\n".join(lines) + "\n"


def cmd_report(paths: list, out_path: str | None = None) -> int:
    """Merge metrics files into one table (stdout) and one JSON document."""
    if not paths:
        raise ConfigError("report needs at least one metrics file")
    entries = []
    for path in paths:
        entries.extend(load_metrics_file(path))
    print(_table_text(entries), end="")
    merged = {"schema_version": SCHEMA_VERSION, "entries": entries}
    if out_path is not None:
        write_json(out_path, merged)
        print(out_path)
    return 0
