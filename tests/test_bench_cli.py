"""Tests for config resolution, trace/metrics serialization, the CLI entry
point, and the reporting pipeline."""

import json
import math
import os
from dataclasses import fields as dataclass_fields

import numpy as np
import pytest

from surrogate_mcmc import bench
from surrogate_mcmc.bench import (
    ConfigError,
    RunConfig,
    SchemaError,
    SEED_ENV_VAR,
    json_text,
    load_config_file,
    load_metrics_file,
    parse_scales,
    read_trace_csv,
    resolve_config,
    trace_csv_text,
    write_trace_csv,
)
from surrogate_mcmc.cli import main
from surrogate_mcmc.samplers import SamplerConfig, run_gp_mh
from surrogate_mcmc.targets import standard_normal_target


def small_gp_trace(seed=3, n_iters=80, n_burnin=20):
    target = standard_normal_target(1)
    config = SamplerConfig(proposal_scales=(2.4,), n_iters=n_iters,
                           n_burnin=n_burnin, seed=seed)
    return run_gp_mh(target, config, np.zeros(1))


def read_metrics_doc(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def strip_wall_clock(doc):
    doc = json.loads(json.dumps(doc))
    if "metrics" in doc:
        doc["metrics"].pop("wall_clock_seconds", None)
    for entry in doc.get("entries", []):
        entry["metrics"].pop("wall_clock_seconds", None)
    for row in doc.get("rows", {}).values():
        for agg in ("mean", "median"):
            row.get(agg, {}).pop("wall_clock_seconds", None)
    return doc


# ---------------------------------------------------------------------------
# scale parsing and config files

def test_parse_scales():
    assert parse_scales("0.5,1.0") == (0.5, 1.0)
    assert parse_scales(" 2.0 , 3.5 ") == (2.0, 3.5)
    with pytest.raises(ConfigError):
        parse_scales("a,b")
    with pytest.raises(ConfigError):
        parse_scales("")
    with pytest.raises(ConfigError):
        parse_scales(",")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("""
[run]
target = t2
algo = mh, gp-mh
replicates = 4
out = results
save_traces = true

[sampler]
iters = 1000
burnin = 200
seed = 11
proposal_scales = 0.25, 8.0, 0.05
mala_step =
""")
    overrides = load_config_file(str(path))
    assert overrides["target"] == "t2"
    assert overrides["algos"] == ("mh", "gp-mh")
    assert overrides["replicates"] == 4
    assert overrides["out_dir"] == "results"
    assert overrides["save_traces"] is True
    assert overrides["n_iters"] == 1000
    assert overrides["n_burnin"] == 200
    assert overrides["seed"] == 11
    assert overrides["proposal_scales"] == (0.25, 8.0, 0.05)
    # empty values mean "not set"
    assert "mala_step" not in overrides


def test_config_file_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[runner]\ntarget = t1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config_file(str(path))


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\ntargett = t1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config_file(str(path))


def test_config_file_values_are_literal(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out%1"
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[run]\nout = {out}\n")
    assert load_config_file(str(ini)) == {"out_dir": str(out)}
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(["run", "--config", str(ini), "--target", "t1", "--algo", "mh",
                 "--iters", "40", "--burnin", "10"]) == 0
    capsys.readouterr()
    assert (out / "trace_t1_mh_seed0.csv").exists()


def test_config_file_rejects_default_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[DEFAULT]\nseed = 3\n\n[run]\ntarget = t1\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
        load_config_file(str(path))


def test_config_file_missing_or_malformed(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(str(tmp_path / "absent.ini"))
    bad = tmp_path / "broken.ini"
    bad.write_text("not an ini at all\n")
    with pytest.raises(ConfigError, match="malformed"):
        load_config_file(str(bad))


def test_config_file_type_errors(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[sampler]\niters = soon\n")
    with pytest.raises(ConfigError, match="iters"):
        load_config_file(str(path))
    path.write_text("[run]\nsave_traces = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        load_config_file(str(path))


# ---------------------------------------------------------------------------
# precedence and validation

def test_resolve_precedence_flags_over_file():
    cfg = resolve_config({"seed": 5, "target": "t2"}, {"seed": 7, "target": None},
                         env={})
    assert cfg.seed == 7
    assert cfg.target == "t2"


def test_resolve_env_seed_wins():
    cfg = resolve_config({"seed": 5}, {"seed": 7}, env={SEED_ENV_VAR: "99"})
    assert cfg.seed == 99
    with pytest.raises(ConfigError, match="integer"):
        resolve_config({}, {}, env={SEED_ENV_VAR: "soon"})


def test_resolve_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        resolve_config({"bogus": 1}, {}, env={})


def test_run_config_validation():
    with pytest.raises(ConfigError, match="unknown algo"):
        RunConfig(algos=("mcmc",))
    with pytest.raises(ConfigError, match="replicates"):
        RunConfig(replicates=0)
    with pytest.raises(ConfigError, match="workers"):
        RunConfig(workers=0)
    with pytest.raises(ConfigError, match="algo"):
        RunConfig(algos=())
    with pytest.raises(ConfigError, match="eval_denominator"):
        RunConfig(eval_denominator=0)
    assert RunConfig(eval_denominator=1).eval_denominator == 1


# ---------------------------------------------------------------------------
# flag / INI parity: every RunConfig field is reachable both ways

# field, INI section, INI key, INI text, value from INI, flag argv, value from flag
SETTING_ROWS = [
    ("target", "run", "target", "t2", "t2", ["--target", "t3"], "t3"),
    ("algos", "run", "algo", "mh, gp-mh", ("mh", "gp-mh"),
     ["--algo", "mala", "--algo", "gp-mala,mh"], ("mala", "gp-mala", "mh")),
    ("n_iters", "sampler", "iters", "1000", 1000, ["--iters", "1200"], 1200),
    ("n_burnin", "sampler", "burnin", "200", 200, ["--burnin", "300"], 300),
    ("seed", "sampler", "seed", "11", 11, ["--seed", "12"], 12),
    ("scale", "run", "scale", "40", 40, ["--scale", "50"], 50),
    ("out_dir", "run", "out", "res_a", "res_a", ["--out", "res_b"], "res_b"),
    ("proposal_scales", "sampler", "proposal_scales", "0.25, 8.0", (0.25, 8.0),
     ["--proposal-scales", "0.5,0.75"], (0.5, 0.75)),
    ("mala_step", "sampler", "mala_step", "0.3", 0.3, ["--mala-step", "0.4"], 0.4),
    ("gp_init_count", "sampler", "gp_init_count", "4", 4,
     ["--gp-init-count", "5"], 5),
    ("hyper_update_every", "sampler", "hyper_update_every", "10", 10,
     ["--hyper-update-every", "20"], 20),
    ("hyper_opt_budget", "sampler", "hyper_opt_budget", "30", 30,
     ["--hyper-opt-budget", "40"], 40),
    ("ledger_cap", "sampler", "ledger_cap", "100", 100, ["--ledger-cap", "150"], 150),
    ("eval_denominator", "sampler", "eval_denominator", "1000", 1000,
     ["--eval-denominator", "2000"], 2000),
    ("replicates", "run", "replicates", "3", 3, ["--replicates", "4"], 4),
    ("workers", "run", "workers", "2", 2, ["--workers", "3"], 3),
    # a store_true flag cannot undo the file, so both sides set True here
    ("save_traces", "run", "save_traces", "yes", True, ["--save-traces"], True),
]
BENCH_ONLY = {"replicates", "workers", "save_traces"}
SETTING_CASES = [(cmd, row) for row in SETTING_ROWS
                 for cmd in (("bench",) if row[0] in BENCH_ONLY else ("run", "bench"))]


def test_setting_rows_cover_run_config():
    assert sorted(row[0] for row in SETTING_ROWS) == sorted(
        f.name for f in dataclass_fields(RunConfig))


def resolved_config(monkeypatch, argv):
    """RunConfig that ``main`` would execute for ``argv``; nothing runs."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    seen = []
    monkeypatch.setattr(bench, "cmd_run", lambda cfg: seen.append(cfg) or 0)
    monkeypatch.setattr(bench, "cmd_bench", lambda cfg: seen.append(cfg) or 0)
    assert main(argv) == 0
    (cfg,) = seen
    return cfg


@pytest.mark.parametrize("cmd,row", SETTING_CASES,
                         ids=[f"{cmd}-{row[0]}" for cmd, row in SETTING_CASES])
def test_setting_flag_ini_parity(tmp_path, monkeypatch, cmd, row):
    name, section, key, text, file_value, flag_argv, flag_value = row
    default = getattr(RunConfig(), name)
    assert file_value != default and flag_value != default
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{section}]\n{key} = {text}\n")
    from_flag = resolved_config(monkeypatch, [cmd] + flag_argv)
    assert getattr(from_flag, name) == flag_value
    from_file = resolved_config(monkeypatch, [cmd, "--config", str(ini)])
    assert getattr(from_file, name) == file_value
    both = resolved_config(monkeypatch, [cmd, "--config", str(ini)] + flag_argv)
    assert getattr(both, name) == flag_value


@pytest.mark.parametrize("flag", ["--replicates", "--workers", "--save-traces"])
def test_run_has_no_bench_only_flags(flag, capsys):
    argv = ["run", flag] if flag == "--save-traces" else ["run", flag, "2"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert flag in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trace CSV format

def test_trace_csv_header_and_cells():
    trace = small_gp_trace()
    text = trace_csv_text(trace)
    lines = text.splitlines()
    assert lines[0] == ("iter,theta_0,stage1_log_alpha,stage1_accepted,"
                        "stage2_log_alpha,stage2_accepted,full_eval")
    assert len(lines) == trace.n_iters + 1
    rejected = np.flatnonzero(~trace.stage1_accepted)
    assert rejected.size > 0
    k = int(rejected[0])
    cells = lines[1 + k].split(",")
    assert len(cells) == 7
    # stage-2 fields stay empty when the screen rejected
    assert cells[4] == "" and cells[5] == ""
    assert cells[3] == "0" and cells[6] == "0"
    accepted = np.flatnonzero(trace.stage1_accepted)
    cells = lines[1 + int(accepted[0])].split(",")
    assert cells[4] != "" and cells[5] in ("0", "1")


def test_trace_csv_17_digit_floats():
    trace = small_gp_trace()
    trace.thetas[0, 0] = 0.1
    text = trace_csv_text(trace)
    assert text.splitlines()[1].split(",")[1] == "0.10000000000000001"


def test_trace_csv_round_trip(tmp_path):
    trace = small_gp_trace()
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, trace)
    back = read_trace_csv(path)
    assert np.array_equal(back["thetas"], trace.thetas)
    assert np.array_equal(back["stage1_log_alpha"], trace.stage1_log_alpha)
    assert np.array_equal(back["stage1_accepted"], trace.stage1_accepted)
    assert np.array_equal(back["stage2_log_alpha"], trace.stage2_log_alpha,
                          equal_nan=True)
    assert np.array_equal(back["stage2_accepted"], trace.stage2_accepted)
    assert np.array_equal(back["full_eval"], trace.full_eval)


def test_json_text_sorted_and_terminated():
    text = json_text({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


# ---------------------------------------------------------------------------
# metrics schema

def _valid_entry():
    return {"schema_version": "1.0", "target": "t1", "algo": "mh", "seed": 0,
            "metrics": {"acceptance_rate": 0.3, "ess": [100.0], "esjd": 1.0,
                        "eval_pct": 100.0, "sd": 0.1}}


def test_load_metrics_single_and_merged(tmp_path):
    single = tmp_path / "one.json"
    single.write_text(json_text(_valid_entry()))
    assert len(load_metrics_file(str(single))) == 1
    merged = tmp_path / "many.json"
    merged.write_text(json_text({"schema_version": "1.0",
                                 "entries": [_valid_entry(), _valid_entry()]}))
    assert len(load_metrics_file(str(merged))) == 2


def test_load_metrics_names_missing_field(tmp_path):
    entry = _valid_entry()
    del entry["metrics"]["sd"]
    path = tmp_path / "m.json"
    path.write_text(json_text(entry))
    with pytest.raises(SchemaError, match="missing field metrics.sd"):
        load_metrics_file(str(path))
    entry = _valid_entry()
    del entry["algo"]
    path.write_text(json_text(entry))
    with pytest.raises(SchemaError, match="missing field algo"):
        load_metrics_file(str(path))


def test_load_metrics_schema_version_gate(tmp_path):
    path = tmp_path / "m.json"
    entry = _valid_entry()
    entry["schema_version"] = "2.0"
    path.write_text(json_text(entry))
    with pytest.raises(SchemaError, match="unsupported schema major"):
        load_metrics_file(str(path))
    entry["schema_version"] = "1.7"  # same major, newer minor is fine
    path.write_text(json_text(entry))
    assert len(load_metrics_file(str(path))) == 1
    del entry["schema_version"]
    path.write_text(json_text(entry))
    with pytest.raises(SchemaError, match="schema_version"):
        load_metrics_file(str(path))


def test_load_metrics_rejects_non_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_metrics_file(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(SchemaError, match="JSON object"):
        load_metrics_file(str(path))


# ---------------------------------------------------------------------------
# CLI end to end

RUN_ARGS = ["run", "--target", "t1", "--algo", "gp-mh", "--iters", "60",
            "--burnin", "20", "--seed", "3"]


def test_cmd_run_outputs(tmp_path, capsys):
    rc = main(RUN_ARGS + ["--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    trace_path = tmp_path / "trace_t1_gp-mh_seed3.csv"
    metrics_path = tmp_path / "metrics_t1_gp-mh_seed3.json"
    assert out == [str(trace_path), str(metrics_path)]
    assert trace_path.exists() and metrics_path.exists()
    entries = load_metrics_file(str(metrics_path))
    assert entries[0]["target"] == "t1"
    assert entries[0]["seed"] == 3
    back = read_trace_csv(str(trace_path))
    assert back["thetas"].shape == (60, 2)


def test_cli_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(RUN_ARGS + ["--out", str(a)]) == 0
    assert main(RUN_ARGS + ["--out", str(b)]) == 0
    ta = (a / "trace_t1_gp-mh_seed3.csv").read_bytes()
    tb = (b / "trace_t1_gp-mh_seed3.csv").read_bytes()
    assert ta == tb
    ma = strip_wall_clock(read_metrics_doc(a / "metrics_t1_gp-mh_seed3.json"))
    mb = strip_wall_clock(read_metrics_doc(b / "metrics_t1_gp-mh_seed3.json"))
    assert ma == mb


def test_cli_env_seed_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    rc = main(RUN_ARGS + ["--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "trace_t1_gp-mh_seed99.csv").exists()


def test_cli_config_file_plus_flags(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"""
[run]
target = t1
algo = gp-mh
out = {tmp_path}

[sampler]
iters = 60
burnin = 20
seed = 5
""")
    rc = main(["run", "--config", str(ini), "--seed", "8"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "trace_t1_gp-mh_seed8.csv").exists()


def test_cli_exit_code_2_on_config_errors(tmp_path, capsys):
    assert main(["run", "--target", "t9", "--algo", "mh",
                 "--out", str(tmp_path)]) == 2
    # gradient algo on a gradient-free target
    assert main(["run", "--target", "t4", "--algo", "mala", "--iters", "30",
                 "--burnin", "10", "--out", str(tmp_path)]) == 2
    assert main(["run", "--target", "t1", "--algo", "nope",
                 "--out", str(tmp_path)]) == 2
    # run takes exactly one algo
    assert main(["run", "--target", "t1", "--algo", "mh,gp-mh",
                 "--out", str(tmp_path)]) == 2
    # wrong proposal dimension
    assert main(["run", "--target", "t1", "--algo", "mh",
                 "--proposal-scales", "0.5", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error" in err.lower() or err.strip()


BAD_SETTINGS = [("eval_denominator", "0"), ("eval_denominator", "-3"),
                ("mala_step", "0"), ("mala_step", "-1"), ("mala_step", "nan"),
                ("mala_step", "inf"), ("scale", "0"), ("scale", "-2")]


@pytest.mark.parametrize("cmd", ["run", "bench"])
@pytest.mark.parametrize("via", ["flag", "ini"])
@pytest.mark.parametrize(
    "key,value", BAD_SETTINGS,
    ids=[v if k == "eval_denominator" else f"{k}={v}" for k, v in BAD_SETTINGS])
def test_non_positive_eval_denominator_exits_2_before_any_chain(tmp_path, monkeypatch,
                                                                capsys, cmd, via, key,
                                                                value):
    """An out-of-range setting is a config error, whatever algo and target
    would use it: exit 2 before any chain starts and before any output."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    started = []
    monkeypatch.setattr(bench, "execute_replicate", lambda *a, **kw: started.append(a))
    argv = [cmd, "--target", "t1", "--algo", "mh", "--iters", "40", "--burnin", "10",
            "--out", str(tmp_path)]
    if via == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{bench.SETTINGS[key].section}]\n{key} = {value}\n")
        argv += ["--config", str(ini)]
    assert main(argv) == 2
    assert started == []
    assert key in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.ini"] if via == "ini" else [])


@pytest.mark.parametrize("flag", [["--iters", "soon"], ["--mala-step", "big"],
                                  ["--proposal-scales", "a,b"]])
def test_cli_malformed_flag_value_exits_2(tmp_path, capsys, flag):
    try:
        rc = main(["run", "--target", "t1", "--algo", "mh", "--out", str(tmp_path)]
                  + flag)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert flag[0] in capsys.readouterr().err


def test_cli_exit_code_1_on_runtime_failure(tmp_path, monkeypatch):
    def boom(*args, **kw):
        raise RuntimeError("chain exploded")

    monkeypatch.setattr(bench, "execute_replicate", boom)
    assert main(RUN_ARGS + ["--out", str(tmp_path)]) == 1


def test_bench_summary(tmp_path, capsys):
    rc = main(["bench", "--target", "t1", "--algo", "mh,gp-mh",
               "--replicates", "2", "--iters", "60", "--burnin", "20",
               "--seed", "4", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    summary_path = tmp_path / "summary_t1.json"
    assert str(summary_path) in out
    doc = read_metrics_doc(summary_path)
    assert doc["kind"] == "bench-summary"
    assert doc["schema_version"] == "1.2"
    assert set(doc["rows"]) == {"mh", "gp-mh"}
    for algo in ("mh", "gp-mh"):
        row = doc["rows"][algo]
        assert row["n_replicates"] == 2
        assert row["n_failures"] == 0
        for key in ("acceptance_rate", "ess", "esjd", "eval_pct", "sd"):
            assert key in row["mean"] and key in row["median"]
        for r in (4, 5):
            assert (tmp_path / f"metrics_t1_{algo}_seed{r}.json").exists()
    # no trace files unless asked for
    assert not list(tmp_path.glob("trace_*.csv"))


def test_bench_save_traces(tmp_path, capsys):
    rc = main(["bench", "--target", "t1", "--algo", "mh", "--replicates", "2",
               "--iters", "40", "--burnin", "10", "--seed", "0",
               "--save-traces", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "trace_t1_mh_seed0.csv").exists()
    assert (tmp_path / "trace_t1_mh_seed1.csv").exists()


def test_bench_single_replicate_matches_run(tmp_path, capsys):
    shared = ["--target", "t1", "--iters", "60", "--burnin", "20", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--algo", "gp-mh", "--out", str(a)] + shared) == 0
    assert main(["bench", "--algo", "gp-mh", "--replicates", "1",
                 "--out", str(b)] + shared) == 0
    capsys.readouterr()
    ma = strip_wall_clock(read_metrics_doc(a / "metrics_t1_gp-mh_seed3.json"))
    mb = strip_wall_clock(read_metrics_doc(b / "metrics_t1_gp-mh_seed3.json"))
    assert ma == mb
    summary = read_metrics_doc(b / "summary_t1.json")
    mean = summary["rows"]["gp-mh"]["mean"]
    assert mean["acceptance_rate"] == pytest.approx(
        ma["metrics"]["acceptance_rate"])
    assert mean["ess"] == pytest.approx(float(np.mean(ma["metrics"]["ess"])))
    assert mean["sd"] == pytest.approx(ma["metrics"]["sd"])


def test_bench_workers_match_serial(tmp_path, capsys):
    shared = ["bench", "--target", "t1", "--algo", "mh", "--replicates", "2",
              "--iters", "40", "--burnin", "10", "--seed", "7"]
    a, b = tmp_path / "serial", tmp_path / "parallel"
    assert main(shared + ["--out", str(a)]) == 0
    assert main(shared + ["--out", str(b), "--workers", "2"]) == 0
    capsys.readouterr()
    for r in (7, 8):
        ma = strip_wall_clock(read_metrics_doc(a / f"metrics_t1_mh_seed{r}.json"))
        mb = strip_wall_clock(read_metrics_doc(b / f"metrics_t1_mh_seed{r}.json"))
        assert ma == mb


def raise_config_error(cfg, algo, replicate, trace_path=None):
    # module level, so worker processes can unpickle it
    raise ConfigError("replicate rejected its config")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_bench_replicate_config_error_exits_2(tmp_path, monkeypatch, capsys, workers):
    monkeypatch.setattr(bench, "execute_replicate", raise_config_error)
    rc = main(["bench", "--target", "t1", "--algo", "mh", "--replicates", "2",
               "--iters", "40", "--burnin", "10", "--workers", workers,
               "--out", str(tmp_path)])
    assert rc == 2
    assert "replicate rejected its config" in capsys.readouterr().err
    assert not (tmp_path / "summary_t1.json").exists()


def test_bench_failure_rate_exit(tmp_path, monkeypatch, capsys):
    def boom(cfg, algo, replicate, trace_path=None):
        raise RuntimeError("chain exploded")

    monkeypatch.setattr(bench, "execute_replicate", boom)
    rc = main(["bench", "--target", "t1", "--algo", "mh", "--replicates", "2",
               "--iters", "40", "--burnin", "10", "--out", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "all replicates failed" in out
    doc = read_metrics_doc(tmp_path / "summary_t1.json")
    assert doc["rows"]["mh"]["n_failures"] == 2
    assert doc["failures"]["mh"][0]["error"].startswith("RuntimeError")


# ---------------------------------------------------------------------------
# report

def test_report_table_and_merge(tmp_path, capsys):
    paths = []
    for seed in (3, 4):
        out = tmp_path / f"d{seed}"
        assert main(["run", "--target", "t1", "--algo", "gp-mh", "--iters", "60",
                     "--burnin", "20", "--seed", str(seed), "--out", str(out)]) == 0
        paths.append(str(out / f"metrics_t1_gp-mh_seed{seed}.json"))
    capsys.readouterr()
    merged1 = str(tmp_path / "merged1.json")
    assert main(["report", *paths, "--out", merged1]) == 0
    table = capsys.readouterr().out
    assert "target" in table and "ESS_min" in table and "Eval%" in table
    assert table.count("\nt1 ") == 2
    # reporting the merged file again reproduces it byte for byte
    merged2 = str(tmp_path / "merged2.json")
    assert main(["report", merged1, "--out", merged2]) == 0
    capsys.readouterr()
    with open(merged1, "rb") as fh:
        b1 = fh.read()
    with open(merged2, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


@pytest.mark.parametrize("doc", [
    {"schema_version": "1.2", "entries": [1]},
    {"schema_version": "1.2", "entries": None},
    {**_valid_entry(), "metrics": 5},
    {**_valid_entry(), "metrics": {**_valid_entry()["metrics"], "acceptance_rate": "0.3"}},
], ids=["entry-not-object", "entries-null", "metrics-not-object", "metric-string"])
def test_report_malformed_metrics_is_schema_error(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json_text(doc))
    with pytest.raises(SchemaError):
        load_metrics_file(str(path))
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_report_missing_file_is_config_error(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
