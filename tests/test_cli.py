import concurrent.futures
import itertools
import json
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import rqshot
from rqshot import benchmark as bm
from rqshot import cli
from rqshot.cli import EXIT_MISSING, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, build_parser, main
from rqshot.config import load_config
from rqshot.driver import DriverConfig
from rqshot.features import BinBoundaries
from rqshot.instance import Instance
from rqshot.learner import PolicyCheckpoint, QTables, TrainConfig
from rqshot.qaoa import Angles


def run(*argv):
    return main(list(argv))


def record_pools(monkeypatch) -> list:
    """Patch the process pool so that each one built appends its max_workers to the returned list."""
    built = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return built


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> screen -> calibrate on a small instance, shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    inst_dir = root / "instances"
    assert run("gen", "-n", "10", "-d", "4", "--count", "1", "--seed", "3",
               "--out", str(inst_dir)) == EXIT_OK
    inst_path = next(inst_dir.glob("*.json"))
    assert run("screen", "--instances", str(inst_dir)) == EXIT_OK
    cap_path = root / "caps" / f"{inst_path.stem}.cap.json"
    assert run("calibrate", "--instance", str(inst_path), "--out", str(cap_path)) == EXIT_OK
    return root, inst_path, cap_path


def test_import_loads_neither_scipy_nor_process_pool():
    """The package runs without SciPy, and only a parallel run starts multiprocessing.

    In a fresh interpreter, since the test modules import SciPy themselves.
    """
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rqshot, rqshot.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
    )
    src = str(Path(rqshot.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe, src],
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


class TestGen:
    def test_writes_expected_instance(self, tmp_path):
        out = tmp_path / "inst"
        assert run("gen", "-n", "14", "-d", "8", "--count", "1", "--seed", "42",
                   "--out", str(out)) == EXIT_OK
        inst = Instance.load(next(out.glob("*.json")))
        assert inst.graph.edge_count == 56
        assert inst.e_opt > 0

    def test_dense_instance(self, tmp_path):
        out = tmp_path / "inst"
        assert run("gen", "-n", "20", "-d", "17", "--count", "1", "--seed", "1",
                   "--out", str(out)) == EXIT_OK
        inst = Instance.load(next(out.glob("*.json")))
        assert inst.graph.edge_count == 170

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("gen", "-n", "10", "-d", "3", "--count", "2", "--seed", "5",
                       "--out", str(out)) == EXIT_OK
        for fa in sorted(a.glob("*.json")):
            fb = b / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    def test_infeasible_degree_is_usage_error(self, tmp_path):
        assert run("gen", "-n", "5", "-d", "3", "--out", str(tmp_path / "x")) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("-n", "30", "-d", "3"),  # beyond the brute-force limit
        ("-n", "10", "-d", "12"),
        ("-n", "10", "-d", "0"),
        ("-n", "9", "-d", "3"),  # n*d odd
        ("-n", "10", "-d", "3", "--count", "0"),
    ])
    def test_bad_values_rejected_before_writing(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert run("gen", *argv, "--out", str(out)) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")


class TestScreenCalibrate:
    def test_screen_annotates_category(self, pipeline):
        _, inst_path, _ = pipeline
        assert Instance.load(inst_path).category in ("hard", "easy")

    def test_calibration_file_schema(self, pipeline):
        _, _, cap_path = pipeline
        data = json.loads(cap_path.read_text())
        assert {"instance_id", "cap", "budget_limited", "sr_at_cap", "probes"} <= set(data)
        assert data["cap"] >= 64

    def test_missing_instance_exit_code(self, tmp_path):
        assert run("calibrate", "--instance", str(tmp_path / "nope.json")) == EXIT_MISSING


class TestEmptyInstanceDirectory:
    """A directory holding no instance is a usage error, named, before anything is written."""

    @staticmethod
    def empty_dir(tmp_path):
        d = tmp_path / "instances"
        d.mkdir()
        (d / "n10d04s3.cap.json").write_text("{}\n")  # a calibration file is not an instance
        return d

    def check(self, capsys, tmp_path, d, code):
        assert code == EXIT_USAGE
        assert f"no instance file in directory {d}" in capsys.readouterr().err
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
            Path("instances"), Path("instances/n10d04s3.cap.json")]

    def test_screen(self, tmp_path, capsys):
        d = self.empty_dir(tmp_path)
        self.check(capsys, tmp_path, d, run("screen", "--instances", str(d)))

    def test_calibrate(self, tmp_path, capsys):
        d = self.empty_dir(tmp_path)
        self.check(capsys, tmp_path, d, run("calibrate", "--instance", str(d)))

    def test_eval(self, tmp_path, capsys):
        d = self.empty_dir(tmp_path)
        self.check(capsys, tmp_path, d, run("eval", "--instances", str(d), "--policies", "uniform",
                                            "--cap", "64", "--out", str(tmp_path / "eval")))


class TestTrainEvalReport:
    def test_full_workflow(self, pipeline, tmp_path):
        root, inst_path, cap_path = pipeline
        ckpt_path = tmp_path / "policy.json"
        assert run("train", "--instance", str(inst_path), "--cap", str(cap_path),
                   "--episodes", "8", "--out", str(ckpt_path)) == EXIT_OK
        ckpt = PolicyCheckpoint.load(ckpt_path)
        assert ckpt.n == 10
        assert len(ckpt.lambda_trace) == 8

        eval_dir = tmp_path / "eval"
        assert run("eval", "--instances", str(inst_path.parent),
                   "--policies", "uniform,heuristic,rl",
                   "--checkpoint", str(ckpt_path), "--cap", str(cap_path),
                   "--out", str(eval_dir)) == EXIT_OK
        records = (eval_dir / "records.csv").read_text().strip().splitlines()
        assert len(records) == 1 + 3  # header + three policies
        trials = (eval_dir / "trials.jsonl").read_text().strip().splitlines()
        assert len(trials) == 3 * load_config(None).protocol.eval_trials

        report_dir = tmp_path / "report"
        assert run("report", "--records", str(eval_dir), "--out", str(report_dir)) == EXIT_OK
        assert (report_dir / "summary.txt").exists()
        assert (report_dir / "aggregate_by_policy.csv").exists()
        assert "uniform" in (report_dir / "summary.txt").read_text()

    def test_train_preset_aggressive(self, pipeline, tmp_path):
        _, inst_path, cap_path = pipeline
        out = tmp_path / "agg.json"
        assert run("train", "--instance", str(inst_path), "--cap", str(cap_path),
                   "--preset", "aggressive", "--episodes", "4", "--out", str(out)) == EXIT_OK
        ckpt = PolicyCheckpoint.load(out)
        assert ckpt.config.lambda0 == 8.0
        assert ckpt.config.lambda_max == 150.0
        assert ckpt.config.mu_lambda == 2.0
        assert ckpt.config.warmup == 50
        assert ckpt.config.extra_fail_penalty == 5.0

    def test_eval_requires_checkpoint_for_rl(self, pipeline, tmp_path):
        _, inst_path, cap_path = pipeline
        assert run("eval", "--instances", str(inst_path), "--policies", "rl",
                   "--cap", str(cap_path), "--out", str(tmp_path / "e")) == EXIT_MISSING

    def test_eval_numeric_cap(self, pipeline, tmp_path):
        _, inst_path, _ = pipeline
        out = tmp_path / "e2"
        assert run("eval", "--instances", str(inst_path), "--policies", "uniform",
                   "--cap", "64", "--out", str(out)) == EXIT_OK
        assert (out / "records.csv").exists()

    def test_report_missing_records(self, tmp_path):
        assert run("report", "--records", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "r")) == EXIT_MISSING


class TestDeterminism:
    def test_eval_rerun_byte_identical(self, pipeline, tmp_path):
        _, inst_path, cap_path = pipeline
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert run("eval", "--instances", str(inst_path), "--policies", "uniform,heuristic",
                       "--cap", str(cap_path), "--out", str(out)) == EXIT_OK
            outs.append(out)
        assert (outs[0] / "records.csv").read_bytes() == (outs[1] / "records.csv").read_bytes()
        assert (outs[0] / "trials.jsonl").read_bytes() == (outs[1] / "trials.jsonl").read_bytes()

    def test_eval_log_steps(self, pipeline, tmp_path):
        _, inst_path, cap_path = pipeline
        out = tmp_path / "steps"
        assert run("eval", "--instances", str(inst_path), "--policies", "uniform",
                   "--cap", str(cap_path), "--log-steps", "--out", str(out)) == EXIT_OK
        lines = [json.loads(x) for x in (out / "steps.jsonl").read_text().splitlines()]
        per_trial = 10 - 8 + 1  # one record per elimination step plus a summary
        assert len(lines) == load_config(None).protocol.eval_trials * per_trial
        assert any("summary" in x for x in lines)

    def test_report_empty_dir_succeeds(self, tmp_path):
        empty = tmp_path / "results"
        empty.mkdir()
        out = tmp_path / "report"
        assert run("report", "--records", str(empty), "--out", str(out)) == EXIT_OK
        assert (out / "summary.txt").exists()


class TestKnobsTakeEffect:
    def test_global_seed_survives_subcommand_seed_default(self):
        for argv in (["oracle-check"], ["gen", "-n", "10", "-d", "3", "--out", "x"]):
            assert build_parser().parse_args(["--seed", "5", *argv]).seed == 5

    def test_global_seed_rejected_where_no_master_seed_is_read(self, tmp_path):
        assert run("--seed", "5", "oracle-check", "--n-max", "4", "--cases", "2") == EXIT_USAGE
        out = tmp_path / "g"
        assert run("--seed", "5", "gen", "-n", "10", "-d", "3", "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("gen", "-n", "10", "-d", "3", "--out", "{tmp}/g"),
        ("report", "--records", "{tmp}/results", "--out", "{tmp}/r"),
        ("oracle-check", "--n-max", "4", "--cases", "2"),
    ], ids=["gen", "report", "oracle-check"])
    def test_global_jobs_rejected_where_no_episode_runs(self, tmp_path, capsys, argv):
        (tmp_path / "results").mkdir()  # an empty records directory, which report accepts
        assert run("--jobs", "4", *(a.format(tmp=tmp_path) for a in argv)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["results"]

    def test_screen_reads_hard_threshold(self, tmp_path):
        inst_dir = tmp_path / "inst"
        assert run("gen", "-n", "10", "-d", "3", "--seed", "1", "--out", str(inst_dir)) == EXIT_OK
        labels = []
        for threshold in ("0.0", "1.0"):  # no ratio is <= 0, every ratio is <= 1
            ini = tmp_path / f"screen{threshold}.ini"
            ini.write_text(
                f"[benchmark]\nscreen_trials = 2\nscreen_cap = 64\nhard_threshold = {threshold}\n"
            )
            assert run("--config", str(ini), "screen", "--instances", str(inst_dir)) == EXIT_OK
            labels.append(Instance.load(next(inst_dir.glob("*.json"))).category)
        assert labels == ["easy", "hard"]

    def test_training_knobs_stay_out_of_driver_config(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\neta = 2.0\n")
        cfg = load_config(ini)
        assert cfg.train.eta == 2.0
        assert cfg.driver == DriverConfig()

    def test_train_reads_train_section(self, pipeline, tmp_path):
        _, inst_path, cap_path = pipeline
        ini = tmp_path / "train.ini"
        ini.write_text("[train]\nepisodes = 3\nalpha = 0.25\n")
        episodes = {}
        for flags in ((), ("--episodes", "2")):
            out = tmp_path / f"policy{len(flags)}.json"
            assert run("--config", str(ini), "train", "--instance", str(inst_path),
                       "--cap", str(cap_path), *flags, "--out", str(out)) == EXIT_OK
            ckpt = PolicyCheckpoint.load(out)
            assert ckpt.config.alpha == 0.25
            episodes[flags] = ckpt.config.episodes
        assert episodes == {(): 3, ("--episodes", "2"): 2}

    def test_run_rho_star_scores_training(self, tmp_path):
        # on n10d05s2 at cap 16 some episodes fall between the two thresholds
        inst_dir = tmp_path / "inst"
        assert run("gen", "-n", "10", "-d", "5", "--seed", "2", "--out", str(inst_dir)) == EXIT_OK
        inst_path = next(inst_dir.glob("*.json"))
        checkpoints = []
        for rho in ("0.99", "0.5"):
            ini = tmp_path / f"rho{rho}.ini"
            ini.write_text(f"[run]\nrho_star = {rho}\n")
            out = tmp_path / f"policy{rho}.json"
            assert run("--config", str(ini), "train", "--instance", str(inst_path), "--cap", "16",
                       "--episodes", "20", "--out", str(out)) == EXIT_OK
            checkpoints.append(out.read_bytes())
        assert checkpoints[0] != checkpoints[1]

    def test_jobs_reach_screen_and_calibrate(self, pipeline, tmp_path, monkeypatch):
        _, inst_path, _ = pipeline
        seen_jobs = []
        map_instances = cli._map_instances

        def recording_map_instances(jobs, fn, *columns):
            seen_jobs.append((fn.func.__name__, jobs))
            return map_instances(jobs, fn, *columns)

        monkeypatch.setattr(cli, "_map_instances", recording_map_instances)
        ini = tmp_path / "run.ini"
        ini.write_text("[benchmark]\nscreen_trials = 6\ncal_trials = 6\ncap_grid = 16 64\n")
        outputs = []
        for jobs in ("1", "2"):
            inst_dir = tmp_path / f"jobs{jobs}"
            inst_dir.mkdir()
            inst_copy = inst_dir / inst_path.name
            inst_copy.write_bytes(inst_path.read_bytes())
            assert run("--config", str(ini), "--jobs", jobs, "screen",
                       "--instances", str(inst_dir)) == EXIT_OK
            cap = inst_dir / "cap.json"
            assert run("--config", str(ini), "--jobs", jobs, "calibrate", "--instance", str(inst_copy),
                       "--out", str(cap)) == EXIT_OK
            outputs.append((inst_copy.read_bytes(), cap.read_bytes()))
        assert outputs[1] == outputs[0]
        assert seen_jobs == [("hard_screen", 1), ("calibrate_cap", 1),
                             ("hard_screen", 2), ("calibrate_cap", 2)]

    def test_negative_episode_flag_is_usage_error(self, pipeline, tmp_path, capsys):
        _, inst_path, cap_path = pipeline
        out = tmp_path / "policy.json"
        assert run("train", "--instance", str(inst_path), "--cap", str(cap_path),
                   "--episodes", "-4", "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: episodes must be non-negative")
        assert not out.exists()

    def test_train_rejects_parallel_jobs(self, pipeline, tmp_path):
        _, inst_path, cap_path = pipeline
        out = tmp_path / "policy.json"
        assert run("--jobs", "2", "train", "--instance", str(inst_path), "--cap", str(cap_path),
                   "--episodes", "2", "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    def test_screen_checks_every_instance_before_saving(self, tmp_path):
        # the n = 18 instance probes 32 shots, above the cap; the n = 10 one must stay unscreened
        inst_dir = tmp_path / "inst"
        for n in ("10", "18"):
            assert run("gen", "-n", n, "-d", "3", "--out", str(inst_dir)) == EXIT_OK
        before = {p.name: p.read_bytes() for p in inst_dir.glob("*.json")}
        ini = tmp_path / "run.ini"
        ini.write_text("[benchmark]\nscreen_trials = 2\nscreen_cap = 16\n")
        assert run("--config", str(ini), "screen", "--instances", str(inst_dir)) == EXIT_USAGE
        assert {p.name: p.read_bytes() for p in inst_dir.glob("*.json")} == before

    @pytest.mark.parametrize("case", ["cap-below-probe", "missing-cap-file", "no-optimum"])
    def test_eval_checks_every_instance_before_writing(self, pipeline, tmp_path, case):
        _, inst_path, cap_path = pipeline
        inst_dir = tmp_path / "inst"
        inst_dir.mkdir()
        (inst_dir / inst_path.name).write_bytes(inst_path.read_bytes())
        caps = tmp_path / "caps"
        caps.mkdir()
        (caps / cap_path.name).write_bytes(cap_path.read_bytes())
        second = json.loads(inst_path.read_text())
        second["seed"] = 99
        cap_flags, expected = ("--caps-dir", str(caps)), EXIT_MISSING
        if case == "cap-below-probe":
            cap_flags, expected = ("--cap", "8"), EXIT_USAGE
        elif case == "no-optimum":
            cap_flags, expected, second["e_opt"] = ("--cap", "64"), EXIT_USAGE, None
        (inst_dir / "n10d04s99.json").write_text(json.dumps(second))
        out = tmp_path / "e"
        assert run("eval", "--instances", str(inst_dir), "--policies", "uniform", *cap_flags,
                   "--out", str(out)) == expected
        assert not out.exists()

    @pytest.mark.parametrize("command", ["screen", "calibrate", "train", "eval"])
    def test_statevector_mode_above_its_qubit_limit_is_usage_error(self, tmp_path, capsys, command):
        # statevector_sampled cannot take effect on 24 qubits, so nothing runs or is written
        inst_dir, out = tmp_path / "inst", tmp_path / "out"
        assert run("gen", "-n", "24", "-d", "3", "--seed", "5", "--out", str(inst_dir)) == EXIT_OK
        inst_path = next(inst_dir.glob("*.json"))
        before = inst_path.read_bytes()
        ini = tmp_path / "run.ini"
        ini.write_text("[sampling]\nmode = statevector_sampled\n")
        argv = {
            "screen": ("screen", "--instances", str(inst_dir)),
            "calibrate": ("calibrate", "--instance", str(inst_path), "--out", str(out)),
            "train": ("train", "--instance", str(inst_path), "--cap", "64", "--out", str(out)),
            "eval": ("eval", "--instances", str(inst_dir), "--policies", "uniform", "--cap", "64",
                     "--out", str(out)),
        }[command]
        capsys.readouterr()
        assert run("--config", str(ini), *argv) == EXIT_USAGE
        assert "statevector_sampled is limited to 22 qubits" in capsys.readouterr().err
        assert not out.exists()
        assert inst_path.read_bytes() == before
        assert sorted(p.name for p in inst_dir.iterdir()) == [inst_path.name]

    def test_parallel_eval_logs_match_serial(self, pipeline, tmp_path, monkeypatch):
        # a single instance runs in-process whatever --jobs says
        _, inst_path, cap_path = pipeline
        built = record_pools(monkeypatch)
        ini = tmp_path / "run.ini"
        ini.write_text("[benchmark]\neval_trials = 6\n")
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert run("--config", str(ini), "--jobs", jobs, "eval", "--instances", str(inst_path),
                       "--policies", "uniform,heuristic", "--cap", str(cap_path), "--log-steps",
                       "--out", str(out)) == EXIT_OK
            outs.append(out)
        for name in ("trials.jsonl", "steps.jsonl", "records.csv"):
            assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()
        assert built == []


# cap_grid 16 64 makes both instances' calibrations bisect
POOL_INI = ("[benchmark]\nscreen_trials = 6\nscreen_cap = 64\ncal_trials = 6\ncap_grid = 16 64\n"
            "eval_trials = 6\n")


class TestInstancePool:
    def _two_instances(self, root: Path) -> Path:
        inst = root / "inst"
        assert run("gen", "-n", "10", "-d", "5", "--count", "2", "--seed", "2",
                   "--out", str(inst)) == EXIT_OK
        return inst

    def test_parallel_commands_match_serial(self, tmp_path, monkeypatch):
        # screen, calibrate and eval over two instances: --jobs 2 builds one two-worker pool per
        # command, --jobs 1 none, and every file is the same; the RL table sends a different
        # residual from every cell, so a table lost on the way to a worker would show
        built = record_pools(monkeypatch)
        ini = tmp_path / "run.ini"
        ini.write_text(POOL_INI)
        cells = itertools.product(range(6), range(7), range(5), range(5))
        q1 = {c: [float(a == sum(c) % 6) for a in range(6)] for c in cells}
        ckpt = tmp_path / "policy.json"
        PolicyCheckpoint(qtables=QTables(q1=q1), config=TrainConfig(), bin_boundaries=BinBoundaries(),
                         n=10, n_c=8, zgap_variant="literal", k_top=3,
                         instance_id="n10d05s2").save(ckpt)
        trees = []
        for jobs in ("1", "2"):
            root = tmp_path / f"jobs{jobs}"
            inst = self._two_instances(root)
            for argv in (
                ("screen", "--instances", str(inst)),
                ("calibrate", "--instance", str(inst)),
                ("eval", "--instances", str(inst), "--policies", "uniform,heuristic,rl",
                 "--checkpoint", str(ckpt), "--caps-dir", str(inst), "--log-steps",
                 "--out", str(root / "eval")),
            ):
                built.clear()
                assert run("--config", str(ini), "--jobs", jobs, *argv) == EXIT_OK
                assert built == ([2] if jobs == "2" else [])
            trees.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()})
        assert trees[1] == trees[0]
        assert len(trees[0]) == 2 + 2 + 3  # instances, caps, records, trials and steps
        caps = [json.loads(v) for k, v in trees[0].items() if k.name.endswith(".cap.json")]
        assert all(len(c["probes"]) > 2 for c in caps)
        assert Instance.load(root / "inst" / "n10d05s2.json").category in ("hard", "easy")

    def test_calibrate_directory_matches_per_file_runs(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(POOL_INI)
        inst = self._two_instances(tmp_path)
        paths = sorted(inst.glob("*.json"))
        for path in paths:
            assert run("--config", str(ini), "calibrate", "--instance", str(path),
                       "--out", str(tmp_path / "caps" / f"{path.stem}.cap.json")) == EXIT_OK
        assert run("--config", str(ini), "calibrate", "--instance", str(inst)) == EXIT_OK
        for path in paths:
            cap = f"{path.stem}.cap.json"
            assert (inst / cap).read_bytes() == (tmp_path / "caps" / cap).read_bytes()

    def test_calibrate_out_needs_one_instance(self, tmp_path, capsys):
        inst = self._two_instances(tmp_path)
        out = tmp_path / "one.cap.json"
        assert run("calibrate", "--instance", str(inst), "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --out names one calibration file")
        assert not out.exists() and not list(inst.glob("*.cap.json"))

    def test_calibrate_checks_every_instance_before_writing(self, tmp_path):
        # the n = 18 instance probes 32 shots, above cap_grid[0]; the n = 10 one gets no cap either
        inst = tmp_path / "inst"
        for n in ("10", "18"):
            assert run("gen", "-n", n, "-d", "3", "--out", str(inst)) == EXIT_OK
        ini = tmp_path / "run.ini"
        ini.write_text("[benchmark]\ncal_trials = 2\ncap_grid = 16 64\n")
        for jobs in ("1", "2"):
            assert run("--config", str(ini), "--jobs", jobs, "calibrate",
                       "--instance", str(inst)) == EXIT_USAGE
            assert not list(inst.glob("*.cap.json"))


def edited(edit):
    """A corruption that edits the checkpoint's dict and writes it as JSON."""
    def corrupt(data):
        edit(data)
        return json.dumps(data)
    return corrupt


def as_format_2(data):
    """The previous format, which did not record the zgap_variant and k_top of training."""
    del data["zgap_variant"], data["k_top"]
    data["format_version"] = 2


class TestCheckpointFile:
    @pytest.mark.parametrize("corrupt", [
        edited(lambda d: d["config"].update(bogus=1)),
        edited(lambda d: d.pop("qtables")),
        edited(lambda d: d["qtables"]["q1"].update({"1:x:3:4": [0.0] * 6})),
        edited(lambda d: d.update(format_version=1)),
        edited(as_format_2),
        lambda d: "not json",
        lambda d: "[1, 2]",
        edited(lambda d: d["config"].update(validation_trials=0)),
        edited(lambda d: d["bin_boundaries"].update(dist_bins=0)),
        edited(lambda d: d.update(bogus=1)),
        edited(lambda d: d.pop("n_c")),
    ], ids=["unknown-config-key", "missing-qtables", "bad-state-key", "old-format", "format-2",
            "not-json", "not-an-object", "out-of-range-config", "out-of-range-bins", "unknown-key",
            "missing-key"])
    def test_malformed_checkpoint_is_validation_error(self, pipeline, tmp_path, capsys, corrupt):
        _, inst_path, _ = pipeline
        data = PolicyCheckpoint(qtables=QTables(), config=TrainConfig(),
                                bin_boundaries=BinBoundaries(), n=10, n_c=8,
                                zgap_variant="literal", k_top=3,
                                instance_id="n10d04s3").to_dict()
        ckpt = tmp_path / "policy.json"
        ckpt.write_text(corrupt(data))
        out = tmp_path / "e"
        assert run("eval", "--instances", str(inst_path), "--policies", "rl", "--checkpoint",
                   str(ckpt), "--cap", "64", "--out", str(out)) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


    def test_other_n_c_is_validation_error(self, pipeline, tmp_path, capsys):
        # discretize keys rows by m - n_c - 1, so an n_c = 8 table read under n_c = 6 is off by two;
        # a table trained under CI's toy.ini (relative_gap, k_top = 4) also reads the wrong rows
        # under literal z-gaps or k_top = 3
        _, inst_path, _ = pipeline
        ckpt = tmp_path / "policy.json"
        PolicyCheckpoint(qtables=QTables(), config=TrainConfig(),
                         bin_boundaries=BinBoundaries(zeta_edges=(0.1, 0.2, 0.4, 0.6)), n=10, n_c=8,
                         zgap_variant="relative_gap", k_top=4, instance_id="n10d04s3").save(ckpt)
        toy = "[sampling]\nzgap_variant = {}\nk_top = {}\n[bins]\nzeta_edges = 0.1 0.2 0.4 0.6\n"
        for text, trained in [
            ("[run]\nn_c = 6\n" + toy.format("relative_gap", 4), "n_c = 8, not 6"),
            (toy.format("literal", 4), "zgap_variant = relative_gap, not literal"),
            (toy.format("relative_gap", 3), "k_top = 4, not 3"),
        ]:
            ini = tmp_path / "run.ini"
            ini.write_text(text)
            out = tmp_path / "e"
            assert run("--config", str(ini), "eval", "--instances", str(inst_path), "--policies",
                       "rl", "--checkpoint", str(ckpt), "--cap", "64", "--out",
                       str(out)) == EXIT_VALIDATION
            assert capsys.readouterr().err.startswith(f"error: checkpoint was trained under {trained}")
            assert not out.exists()


class TestFileSchemas:
    def test_keys_of_every_output_file(self, pipeline, tmp_path):
        # the keys follow from dataclass fields; a renamed field must fail here, not change a file
        _, inst_path, cap_path = pipeline
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nvalidation_every = 4\nvalidation_trials = 2\n\n"
                       "[benchmark]\neval_trials = 2\n")
        ckpt_path, out = tmp_path / "policy.json", tmp_path / "eval"
        assert run("--config", str(ini), "train", "--instance", str(inst_path), "--cap",
                   str(cap_path), "--episodes", "4", "--out", str(ckpt_path)) == EXIT_OK
        assert run("--config", str(ini), "eval", "--instances", str(inst_path), "--policies",
                   "uniform,rl", "--checkpoint", str(ckpt_path), "--cap", str(cap_path),
                   "--log-steps", "--out", str(out)) == EXIT_OK

        inst = json.loads(inst_path.read_text())
        assert set(inst) == {"n", "d", "seed", "weight_dist", "edges", "e_opt", "category"}
        cap = json.loads(cap_path.read_text())
        assert set(cap) == {"instance_id", "cap", "budget_limited", "sr_at_cap", "probes"}
        assert all(set(p) == {"cap", "sr"} for p in cap["probes"])

        ckpt = json.loads(ckpt_path.read_text())
        assert set(ckpt) == {
            "format_version", "qtables", "config", "bin_boundaries", "n", "n_c", "zgap_variant",
            "k_top", "instance_id", "validation_sr", "validation_median_shots",
            "validation_mean_shots", "lambda_trace", "validation_history"}
        assert ckpt["format_version"] == 3
        assert set(ckpt["qtables"]) == {"q1", "q2"}
        assert set(ckpt["config"]) == {
            "alpha", "discount", "eps_start", "eps_min", "eps_decay", "episodes", "lambda0",
            "mu_lambda", "lambda_max", "ema_beta", "warmup", "p_star", "eta",
            "extra_fail_penalty", "validation_every", "validation_trials"}
        assert set(ckpt["bin_boundaries"]) == {"zeta_edges", "kappa_edges", "dist_bins"}
        assert [set(v) for v in ckpt["validation_history"]] == [
            {"episode", "sr", "median_shots", "mean_shots"}]

        head = {"instance_id", "policy", "trial", "cap"}
        episode = {"total_shots", "e_out", "e_opt", "sigma", "approx_ratio", "early_exhausted"}
        trials = [json.loads(x) for x in (out / "trials.jsonl").read_text().splitlines()]
        assert len(trials) == 4 and all(set(t) == head | episode for t in trials)
        lines = [json.loads(x) for x in (out / "steps.jsonl").read_text().splitlines()]
        steps = [x for x in lines if "summary" not in x]
        summaries = [x for x in lines if "summary" in x]
        assert len(steps) == 4 * (10 - 8) and len(summaries) == 4
        assert all(set(s) == head | {
            "step", "m", "zeta", "kappa", "dist", "disc", "baseline_index", "residual", "shots",
            "edge", "sign", "top_two", "trivial"} for s in steps)
        assert all(set(s) == head | {"summary"} and set(s["summary"]) == episode
                   for s in summaries)


class TestOracleCheckCommand:
    def test_passes_and_exits_zero(self):
        assert run("oracle-check", "--n-max", "6", "--cases", "10") == EXIT_OK

    def test_corrupted_formula_fails(self, monkeypatch):
        # mutation check: a wrong closed form must drive a nonzero exit
        import rqshot.cli as cli_mod

        true_fn = cli_mod.zz_all_edges

        def corrupted(g, a):
            return true_fn(g, a) * 0.5

        monkeypatch.setattr(cli_mod, "zz_all_edges", corrupted)
        assert run("oracle-check", "--n-max", "6", "--cases", "10") == 2

    def test_poor_angle_search_fails(self, monkeypatch):
        # mutation check: angles worse than the 48 x 24 grid must drive a nonzero exit
        import rqshot.cli as cli_mod

        true_fn = cli_mod.optimize_angles

        def detuned(g):
            a = true_fn(g)
            return Angles(a.gamma, a.beta + np.pi / 8)

        monkeypatch.setattr(cli_mod, "optimize_angles", detuned)
        assert run("oracle-check", "--n-max", "6", "--cases", "10") == 2

    @pytest.mark.parametrize("breakage", ["value", "assignment"])
    def test_broken_brute_force_fails(self, monkeypatch, breakage):
        # mutation check: a wrong optimum, or an assignment whose cut is not it, must exit 2
        import rqshot.cli as cli_mod

        true_fn = cli_mod.brute_force_optimum

        def broken(g):
            e_opt, z = true_fn(g)
            if breakage == "value":
                return e_opt + 1e-6, z
            return e_opt, {**z, g.nodes[0]: -z[g.nodes[0]]}

        monkeypatch.setattr(cli_mod, "brute_force_optimum", broken)
        assert run("oracle-check", "--n-max", "6", "--cases", "10") == 2

    @pytest.mark.parametrize("argv", [
        ("--cases", "0"),
        ("--cases", "-3"),
        ("--n-max", "1"),
        ("--n-max", "17"),
        ("--n-max", "23", "--cases", "40"),
    ], ids=["no-cases", "negative-cases", "n-max-1", "n-max-17", "n-max-23"])
    def test_out_of_range_is_usage_error(self, monkeypatch, capsys, argv):
        # rejected before any case is generated (n = 23 would enumerate 2^23 x E products)
        def unreachable(*args, **kwargs):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(cli, "generate_instance", unreachable)
        assert run("oracle-check", *argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --")

    @pytest.mark.parametrize("n_max", [2, 16])
    def test_n_max_range_is_inclusive(self, capsys, n_max):
        assert run("oracle-check", "--n-max", str(n_max), "--cases", "1") == EXIT_OK
        assert "over 1 cases" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_command(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_missing_required_flag(self):
        assert run("gen", "-n", "4") == EXIT_USAGE


class TestConfigFile:
    def test_defaults_match_reference_protocol(self):
        cfg = load_config(None)
        assert cfg.driver.n_c == 8
        assert cfg.driver.rho_star == 0.99
        assert cfg.train.episodes == 1200
        assert cfg.protocol.cal_trials == 60
        assert cfg.protocol.eval_trials == 60
        assert cfg.protocol.operational_floor == 0.90
        assert cfg.protocol.cap_grid == (64, 128, 256, 512, 1024, 2048, 4096)
        assert cfg.driver.bins == BinBoundaries()

    def test_ini_overrides(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nmaster_seed = 7\nn_c = 6\n\n"
            "[sampling]\nmode = binomial\nzgap_variant = relative_gap\n\n"
            "[bins]\nzeta_edges = 0.1 0.2 0.4 0.6 0.8 0.9\n\n"
            "[train]\npreset = aggressive\nepisodes = 99\n\n"
            "[benchmark]\ncal_trials = 10\ncap_grid = 64 128 256\n"
        )
        cfg = load_config(ini)
        assert cfg.master_seed == 7
        assert cfg.driver.n_c == 6
        assert cfg.driver.sampling_mode == "binomial"
        assert cfg.driver.zgap_variant == "relative_gap"
        assert cfg.driver.bins.zeta_edges == (0.1, 0.2, 0.4, 0.6, 0.8, 0.9)
        assert cfg.train.lambda0 == 8.0
        assert cfg.train.episodes == 99
        assert cfg.protocol.cal_trials == 10
        assert cfg.protocol.cap_grid == (64, 128, 256)

    @pytest.mark.parametrize("text", [
        "[benchmark]\neval_trails = 2\n",
        "[smapling]\nmode = exact\n",
        "[DEFAULT]\nn_c = 6\n",
        "[sampling]\nsv_max_qubits = 21\n",
        "[train]\nrho_star = 0.5\n",
    ], ids=["key", "section", "default-section", "removed-sv-max-qubits", "removed-train-rho-star"])
    def test_unknown_key_or_section_is_usage_error(self, pipeline, tmp_path, text):
        _, inst_path, cap_path = pipeline
        ini = tmp_path / "typo.ini"
        ini.write_text(text)
        out = tmp_path / "e"
        assert run("--config", str(ini), "eval", "--instances", str(inst_path),
                   "--policies", "uniform", "--cap", str(cap_path), "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("text, flags", [(text, ()) for text in [
        "[sampling]\nk_top = 0\n",
        "[sampling]\nmode = sampled\n",
        "[sampling]\nzgap_variant = ratio\n",
        "[run]\nn_c = -3\n",
        "[bins]\ndist_bins = 0\n",
        "[bins]\nkappa_edges = 0.3 0.1\n",
        "[benchmark]\neval_trials = 0\n",
        "[benchmark]\nscreen_trials = 0\n",
        "[benchmark]\ncal_trials = 0\n",
        "[benchmark]\nscreen_cap = 0\n",
        "[benchmark]\ncal_resolution = 0\n",
        "[benchmark]\ncap_grid =\n",
        "[benchmark]\ncap_grid = 128 64\n",
        "[train]\nvalidation_trials = 0\n",
        "[train]\nepisodes = -4\n",
        "[train]\neps_start = 1.5\n",
        "[train]\nlambda0 = -1\n",
        "[train]\nalpha = 7\n",
        "[train]\ndiscount = 3\n",
        "[train]\nema_beta = -2\n",
        "[train]\np_star = 4\n",
        "[train]\nmu_lambda = -1\n",
        "[train]\neta = -0.5\n",
        "[train]\nextra_fail_penalty = -5\n",
        "[run]\njobs = 0\n",
        "[run]\njobs = -3\n",
        "[sampling]\nsv_threshold = 40\n",
        "[sampling]\nsv_threshold = -1\n",
        "[run]\nrho_star = nan\n",
        "[run]\nrho_star = 1.5\n",
        "[run]\nrho_star = 0\n",
        "[train]\nlambda0 = nan\n",
        "[benchmark]\ncal_target = nan\n",
        "[benchmark]\nhard_threshold = inf\n",
        "[bins]\nzeta_edges = 1.0 nan 2.0\n",
        "[bins]\nkappa_edges = 0.1 -inf\n",
        "[sampling]\nzgap_variant = relative_gap\n",
        "[sampling]\nzgap_variant = relative_gap\n[bins]\nzeta_edges = 0.0 0.5\n",
        "[sampling]\nzgap_variant = relative_gap\n[bins]\nzeta_edges = 0.5 1.0\n",
    ]] + [("", ("--jobs", "0"))],
        ids=["k_top-zero", "unknown-mode", "unknown-zgap-variant", "negative-n_c", "dist_bins-zero",
             "descending-edges", "eval_trials-zero", "screen_trials-zero", "cal_trials-zero",
             "screen_cap-zero", "cal_resolution-zero", "empty-cap-grid", "descending-cap-grid",
             "validation_trials-zero", "negative-episodes", "epsilon-above-one", "negative-lambda0",
             "alpha-above-one", "discount-above-one", "negative-ema_beta", "p_star-above-one",
             "negative-mu_lambda", "negative-eta", "negative-extra_fail_penalty", "jobs-zero", "negative-jobs",
             "sv_threshold-above-max-qubits", "negative-sv_threshold", "nan-rho_star", "rho_star-above-one",
             "rho_star-zero", "nan-lambda0", "nan-cal_target", "infinite-hard_threshold", "nan-zeta-edge",
             "infinite-kappa-edge", "relative_gap-default-edges", "relative_gap-edge-zero",
             "relative_gap-edge-one", "jobs-flag-zero"])
    def test_out_of_range_value_is_usage_error(self, pipeline, tmp_path, capsys, text, flags):
        _, inst_path, cap_path = pipeline
        ini = tmp_path / "range.ini"
        ini.write_text(text)
        out = tmp_path / "e"
        assert run("--config", str(ini), *flags, "eval", "--instances", str(inst_path),
                   "--policies", "uniform", "--cap", str(cap_path), "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("build", [
        lambda: replace(DriverConfig(), k_top=0),
        lambda: DriverConfig(sampling_mode="sampled"),
        lambda: DriverConfig(sv_threshold=23),
        lambda: DriverConfig(sv_threshold=-1),
        lambda: BinBoundaries(dist_bins=0),
        lambda: replace(TrainConfig.preset("aggressive"), validation_trials=0),
        lambda: replace(TrainConfig(), alpha=1.5),
        lambda: TrainConfig(extra_fail_penalty=-1.0),
        lambda: bm.ProtocolConfig(cap_grid=(64, 64)),
        lambda: DriverConfig(rho_star=1.01),
        lambda: DriverConfig(rho_star=0.0),
        lambda: DriverConfig(rho_star=float("nan")),
        lambda: DriverConfig(zgap_variant="relative_gap"),
        lambda: DriverConfig(zgap_variant="relative_gap", bins=BinBoundaries(zeta_edges=(0.2, 1.0))),
        lambda: DriverConfig(zgap_variant="relative_gap", bins=BinBoundaries(zeta_edges=(0.0, 0.2))),
    ], ids=["driver-replace", "driver", "driver-sv_threshold-above", "driver-sv_threshold-below",
            "bins", "train-replace", "train-alpha", "train-penalty", "protocol", "driver-rho_star-above",
            "driver-rho_star-zero", "driver-rho_star-nan", "driver-relative_gap-default-edges",
            "driver-relative_gap-edge-one", "driver-relative_gap-edge-zero"])
    def test_dataclasses_check_their_ranges(self, build):
        with pytest.raises(ValueError):
            build()

    def test_sv_threshold_range_is_inclusive(self):
        for sv in (0, 22):
            assert DriverConfig(sv_threshold=sv).sv_threshold == sv

    def test_rho_star_one_and_relative_gap_inside_unit_interval_load(self, tmp_path):
        ini = tmp_path / "edges.ini"
        ini.write_text("[run]\nrho_star = 1\n[sampling]\nzgap_variant = relative_gap\n"
                       "[bins]\nzeta_edges = 0.1 0.2 0.4 0.6\n")
        driver = load_config(ini).driver
        assert (driver.rho_star, driver.bins.zeta_edges) == (1.0, (0.1, 0.2, 0.4, 0.6))
        # the literal variant keeps its edges at and above 1
        assert DriverConfig(zgap_variant="literal").bins == BinBoundaries()

    @pytest.mark.parametrize("text, where", [
        ("[train]\nlambda0 = nan\n", r"\[train\] lambda0: must be finite, got 'nan'"),
        ("[bins]\nzeta_edges = 1.0, -inf\n", r"\[bins\] zeta_edges: must be finite, got '-inf'"),
    ], ids=["float", "float-tuple"])
    def test_non_finite_float_names_its_key(self, tmp_path, text, where):
        ini = tmp_path / "nan.ini"
        ini.write_text(text)
        with pytest.raises(ValueError, match=where):
            load_config(ini)

    @pytest.mark.parametrize("text", [
        "[run]\nn_c = 6\nn_c = 7\n",
        "n_c = 6\n[run]\nmaster_seed = 1\n",
        "[run]\n[run]\n",
    ], ids=["repeated-key", "no-section-header", "repeated-section"])
    def test_malformed_file_is_usage_error(self, pipeline, tmp_path, capsys, text):
        _, inst_path, cap_path = pipeline
        ini = tmp_path / "malformed.ini"
        ini.write_text(text)
        out = tmp_path / "e"
        assert run("--config", str(ini), "eval", "--instances", str(inst_path),
                   "--policies", "uniform", "--cap", str(cap_path), "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: malformed config file {ini}")
        assert not out.exists()

    def test_every_key_loads(self, tmp_path):
        standard = TrainConfig()
        train = {f.name: getattr(standard, f.name) + 1 if f.type == "int" else getattr(standard, f.name) / 2
                 for f in fields(TrainConfig)}
        ini = tmp_path / "all.ini"
        ini.write_text(
            "[run]\nmaster_seed = 7\nn_c = 6\nrho_star = 0.98\njobs = 2\n"
            "[sampling]\nmode = binomial\nsv_threshold = 18\n"
            "zgap_variant = relative_gap\nk_top = 4\n"
            "[bins]\nzeta_edges = 0.25, 0.5\nkappa_edges = 0.2 0.3\ndist_bins = 4\n"
            "[train]\npreset = aggressive\n"
            + "".join(f"{k} = {v}\n" for k, v in train.items())
            + "[benchmark]\nscreen_trials = 11\nscreen_cap = 96\nhard_threshold = 0.75\n"
            "cal_trials = 12\ncal_target = 0.9\ncal_resolution = 8\ncap_grid = 64 128\n"
            "eval_trials = 13\noperational_floor = 0.8\n"
        )
        cfg = load_config(ini)
        driver, protocol = cfg.driver, cfg.protocol

        def typed(*values):  # 6 == 6.0, so compare the types too
            return [(type(v), v) for v in values]

        assert typed(cfg.master_seed, driver.n_c, driver.rho_star, cfg.jobs) == typed(7, 6, 0.98, 2)
        assert typed(driver.sampling_mode, driver.sv_threshold) == typed("binomial", 18)
        assert typed(driver.zgap_variant, driver.k_top) == typed("relative_gap", 4)
        assert driver.bins == BinBoundaries((0.25, 0.5), (0.2, 0.3), 4)
        assert type(driver.bins.dist_bins) is int
        assert cfg.train == TrainConfig(**train)
        assert all(type(getattr(cfg.train, k)) is type(v) for k, v in train.items())
        assert typed(protocol.screen_trials, protocol.screen_cap, protocol.hard_threshold) == typed(
            11, 96, 0.75)
        assert typed(protocol.cal_trials, protocol.cal_target, protocol.cal_resolution) == typed(
            12, 0.9, 8)
        assert typed(protocol.cap_grid, protocol.eval_trials, protocol.operational_floor) == typed(
            (64, 128), 13, 0.8)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.ini")
