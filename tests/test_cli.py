import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest

from spindir import cli
from spindir.cli import (
    OUTPUT_DIR_VAR,
    PHILOX_STREAM,
    REPORT_COLUMNS,
    ResultRecord,
    main,
    read_record,
    record_from_run,
    record_to_json,
    write_record,
)
from spindir.harness import STREAM, RunConfig, run_experiment
from spindir.povm import Povm
from spindir.protocols import ProtocolSpec


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_config(tmp_path, fmt: str, sections: dict) -> Path:
    """sections written as an INI or a JSON settings file."""
    cfg = tmp_path / f"run.{fmt}"
    if fmt == "json":
        cfg.write_text(json.dumps(sections))
    else:
        cfg.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
            for name, body in sections.items()
        ))
    return cfg


def simulate_record(capsys, tmp_path, name, *args):
    path = tmp_path / name
    code, out, err = run(capsys, "simulate", *args, "--output", str(path))
    assert code == 0, err
    return path, out


def test_import_loads_no_scipy(tmp_path):
    # the runtime is numpy and click; scipy and hypothesis are test-only, so
    # every command must run with both imports blocked
    code = ("import json, sys; "
            "sys.modules['scipy'] = sys.modules['hypothesis'] = None; "
            "from spindir.cli import main; "
            "print(json.dumps([main(args) for args in json.loads(sys.argv[1])]))")
    simulate = [
        ("d3-single", "1"), ("d3-repeated", "3"), ("d3-covariant", "2"), ("d3-coherent", "4"),
        ("frame-two-axis", "4", "--decoder", "best-fit"),
        ("frame-two-axis", "4", "--decoder", "naive-euler"),
    ]
    records = [str(tmp_path / f"r{k}.json") for k in range(len(simulate))]
    runs = [["validate"], ["optimize", "direction"], ["optimize", "dihedral", "--num-spins", "2"]]
    for (kind, n, *extra), path in zip(simulate, records):
        runs.append(["simulate", "--kind", kind, "--num-spins", n, *extra,
                     "--trials", "500", "--seed", "1", "--output", path])
    runs.append(["report", *records])
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs), proc.stderr


class TestValidate:
    def test_all_checks_pass(self, capsys):
        code, out, err = run(capsys, "validate")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 7
        assert all(l.startswith("PASS") for l in lines)
        assert "all 7 checks passed" in out

    def test_draws_no_random_numbers(self):
        # the invariant blocks are written out, so a fresh process runs every
        # self-check without importing numpy.random
        code = ("import sys; from spindir.cli import main; "
                "code = main(['validate']); print(code, 'numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_broken_quadrature_fails(self, capsys, monkeypatch):
        real = cli.covariant_direction_povm

        def incomplete(j, quad):
            povm = real(j, quad)
            return Povm(1.01 * povm.operators)

        monkeypatch.setattr(cli, "covariant_direction_povm", incomplete)
        code, out, err = run(capsys, "validate")
        assert code == 1
        assert any(
            l.startswith("FAIL") and "sampled direction POVM" in l
            for l in out.splitlines()
        )
        assert "1 of 7 checks failed" in err


class TestOptimize:
    def test_single_direction_row(self, capsys):
        code, out, _ = run(capsys, "optimize", "direction", "--num-spins", "2")
        assert code == 0
        assert "N^2(1-F)" in out
        assert "0.211324865405" in out  # (1 - 1/sqrt(3))/2

    def test_sixty_spin_row(self, capsys):
        code, out, _ = run(capsys, "optimize", "direction", "--num-spins", "60")
        assert code == 0
        assert "5.24253272494" in out

    def test_table_scaled_infidelity_increases(self, capsys):
        code, out, _ = run(capsys, "optimize", "direction")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 12  # N = 2, 4, ..., 24
        scaled = [float(r.split()[3]) for r in rows]
        assert all(b > a for a, b in zip(scaled, scaled[1:]))

    def test_rejects_odd_spin_count(self, capsys):
        code, out, err = run(capsys, "optimize", "direction", "--num-spins", "7")
        assert code == 1
        assert "must be a positive even number" in err

    def test_rejects_tiny_max(self, capsys):
        code, _, err = run(capsys, "optimize", "direction", "--max-spins", "1")
        assert code == 1
        assert "--max-spins must be at least 2" in err

    def test_rejects_conflicting_ranges(self, capsys):
        code, _, err = run(
            capsys, "optimize", "direction", "--num-spins", "4", "--max-spins", "8"
        )
        assert code == 1

    def test_dihedral_two_spin_profile(self, capsys):
        code, out, _ = run(capsys, "optimize", "dihedral")
        assert code == 0
        assert "F = 0.666666666667" in out
        assert "0.5, 0.5, 0.707106781187" in out

    def test_dihedral_one_spin_profile(self, capsys):
        code, out, _ = run(capsys, "optimize", "dihedral", "--num-spins", "1")
        assert code == 0
        assert "F = 0.333333333333" in out

    def test_dihedral_rejects_other_sizes(self, capsys):
        code, _, err = run(capsys, "optimize", "dihedral", "--num-spins", "3")
        assert code == 1
        assert "1 or 2 spins" in err

    def test_out_file_mirrors_stdout(self, capsys, tmp_path):
        path = tmp_path / "table.txt"
        code, out, _ = run(
            capsys, "optimize", "direction", "--num-spins", "4", "--out", str(path)
        )
        assert code == 0
        assert path.read_text() == out

    @pytest.mark.parametrize("target", ["direction", "dihedral"])
    def test_empty_out_is_refused(self, capsys, tmp_path, monkeypatch, target):
        # --out "" printed the table, wrote no file and exited 0
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "optimize", target, "--num-spins", "2", "--out", "")
        assert code == 1
        assert err.startswith("error: --out is empty")
        assert out == "" and not any(tmp_path.iterdir())


class TestSimulate:
    def test_flags_run_and_persist(self, capsys, tmp_path):
        path, out = simulate_record(
            capsys,
            tmp_path,
            "single.json",
            "--kind",
            "d3-single",
            "--num-spins",
            "1",
            "--trials",
            "4000",
            "--seed",
            "9",
        )
        assert "exact reference 0.333333" in out
        assert f"wrote {path}" in out
        body = json.loads(path.read_text())
        assert body["schema_version"] == 1
        assert body["config"]["protocol"]["kind"] == "d3-single"
        assert body["config"]["trials"] == 4000
        assert body["config"]["seed"] == 9
        est = body["result"]["estimates"]
        err = body["result"]["stderrs"]
        assert abs(est["fidelity"] - 1.0 / 3.0) < 4.0 * err["fidelity"]
        assert est["fidelity"] + est["infidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_ini_config_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[protocol]\n"
            "kind = d3-coherent\n"
            "num-spins = 4\n"
            "[run]\n"
            "trials = 3000\n"
            "seed = 42\n"
        )
        path, out = simulate_record(
            capsys, tmp_path, "coh.json", "--config", str(cfg), "--trials", "5000"
        )
        body = json.loads(path.read_text())
        assert body["config"]["trials"] == 5000  # flag wins over file
        assert body["config"]["seed"] == 42
        assert "quadrature reference" in out

    def test_readme_ini_example_runs(self, capsys, tmp_path):
        # the README's example keeps its inline "# ..." comments after values
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Config files\n.*?```ini\n(.*?)```", readme, re.S).group(1)
        cfg = tmp_path / "settings.ini"
        cfg.write_text(block)
        path, out = simulate_record(
            capsys, tmp_path, "readme.json", "--config", str(cfg), "--trials", "2000"
        )
        body = json.loads(path.read_text())
        assert body["config"]["protocol"] == {
            "kind": "frame-two-axis", "num_spins": 4, "encoding": "optimal",
            "decoder": "naive-euler", "tie_break": "random",
        }
        assert (body["config"]["trials"], body["config"]["seed"]) == (2000, 11)
        assert "estimator clamps" in out

    def test_json_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "protocol": {
                        "kind": "d3-repeated",
                        "num_spins": 3,
                        "tie_break": "lowest-index",
                    },
                    "run": {"trials": 3000, "seed": 7},
                }
            )
        )
        _, out = simulate_record(capsys, tmp_path, "vote.json", "--config", str(cfg))
        assert "exact reference 0.355903" in out  # 205/576

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\ntrials = 10\nseed = 1\nshots = 5\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "unknown setting 'shots'" in err

    def test_unknown_section_is_refused_in_ini(self, capsys, tmp_path):
        # a [decoding] section holding decoder = naive-euler was dropped: the
        # run went best-fit and exited 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[protocol]\nkind = frame-two-axis\nnum-spins = 4\n[run]\ntrials = 10\nseed = 1\n"
            "[decoding]\ndecoder = naive-euler\n"
        )
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", "--config", str(cfg), "--output", str(out_dir / "r.json")
        )
        assert code == 1
        assert err.startswith(f"error: {cfg}: unknown section 'decoding'")
        assert out == "" and not out_dir.exists()

    def test_unknown_top_level_key_is_refused_in_json(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "protocol": {"kind": "frame-two-axis", "num_spins": 4},
            "run": {"trials": 10, "seed": 1},
            "decoding": {"decoder": "naive-euler"},
        }))
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", "--config", str(cfg), "--output", str(out_dir / "r.json")
        )
        assert code == 1
        assert err.startswith(f"error: {cfg}: unknown section 'decoding'")
        assert out == "" and not out_dir.exists()

    def _refused(self, capsys, tmp_path, cfg, message):
        """Run cfg and check that it exits 1 naming the conflict, before the
        run and without writing a record."""
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", "--config", str(cfg), "--output", str(out_dir / "r.json")
        )
        assert code == 1
        assert err.startswith(f"error: {cfg}: {message}")
        assert out == "" and not out_dir.exists()

    def test_default_section_is_refused_in_ini(self, capsys, tmp_path):
        # [DEFAULT] was read into every section: trials = 7 ran 7 trials
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[DEFAULT]\ntrials = 7\n[protocol]\nkind = d3-single\nnum-spins = 1\n[run]\nseed = 1\n"
        )
        self._refused(capsys, tmp_path, cfg, "unknown section 'DEFAULT'")

    @pytest.mark.parametrize("fmt", ["ini", "json"])
    def test_setting_in_both_sections_is_refused(self, capsys, tmp_path, fmt):
        # trials under protocol and under run ran the later value
        sections = {
            "protocol": {"kind": "d3-single", "num_spins": 1, "trials": 5},
            "run": {"trials": 10, "seed": 1},
        }
        cfg = _write_config(tmp_path, fmt, sections)
        self._refused(capsys, tmp_path, cfg, "trials is set twice")

    @pytest.mark.parametrize("fmt", ["ini", "json"])
    def test_both_spellings_of_a_setting_are_refused(self, capsys, tmp_path, fmt):
        # num-spins = 3 and num_spins = 5 in one section ran N = 5
        sections = {
            "protocol": {"kind": "d3-repeated", "num-spins": 3, "num_spins": 5},
            "run": {"trials": 10, "seed": 1},
        }
        cfg = _write_config(tmp_path, fmt, sections)
        self._refused(capsys, tmp_path, cfg, "num_spins is set twice")

    def test_repeated_json_key_is_refused(self, capsys, tmp_path):
        # "trials": 5, "trials": 9 ran 9 trials; an INI repeat is a parse error
        cfg = tmp_path / "run.json"
        cfg.write_text(
            '{"protocol": {"kind": "d3-single", "num_spins": 1},'
            ' "run": {"trials": 5, "trials": 9, "seed": 1}}'
        )
        self._refused(capsys, tmp_path, cfg, "key 'trials' repeats")

    @pytest.mark.parametrize("section", [["d3-single"], None, "d3-single"])
    def test_config_section_must_be_object(self, capsys, tmp_path, section):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"protocol": section, "run": {"trials": 10, "seed": 1}}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error: ")
        assert str(cfg) in err and "JSON object" in err

    @pytest.mark.parametrize(
        "protocol,run_section,key",
        [
            ({"kind": "d3-single", "num_spins": True}, {"trials": 10, "seed": 1}, "num_spins"),
            ({"kind": "d3-single", "num_spins": 1}, {"trials": True, "seed": 1}, "trials"),
            ({"kind": "d3-single", "num_spins": 1}, {"trials": 10, "seed": False}, "seed"),
        ],
    )
    def test_bool_setting_is_not_an_integer(self, capsys, tmp_path, protocol, run_section, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"protocol": protocol, "run": run_section}))
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "simulate", "--config", str(cfg), "--output", str(out_dir / "r.json")
        )
        assert code == 1
        assert f"{key} must be an integer" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("output", [1, True, [], ""])
    def test_output_setting_must_be_a_path(self, capsys, tmp_path, output):
        # an integer output was opened as a file descriptor: 1 wrote the
        # record to stdout and closed it
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "protocol": {"kind": "d3-single", "num_spins": 1},
                    "run": {"trials": 10, "seed": 1, "output": output},
                }
            )
        )
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert err.startswith(f"error: {cfg}: output must be a non-empty string")
        assert out == ""

    @pytest.mark.parametrize("value", [False, 0, [], {}], ids=["false", "0", "list", "object"])
    @pytest.mark.parametrize("key", ["kind", "encoding", "decoder", "tie_break"])
    def test_text_setting_must_be_a_string(self, capsys, tmp_path, key, value):
        # a falsy non-string fell back to the default: "encoding": false ran coherent
        cfg = tmp_path / "run.json"
        protocol = {"kind": "d3-single", "num_spins": 1, key: value}
        cfg.write_text(json.dumps({"protocol": protocol, "run": {"trials": 10, "seed": 1}}))
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "simulate", "--config", str(cfg), "--output", str(out_dir / "r.json")
        )
        assert code == 1
        assert err.startswith(f"error: {cfg}: {key} must be a string, got {value!r}")
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["encoding", "decoder", "tie_break"])
    def test_empty_text_setting_is_refused_in_json(self, capsys, tmp_path, key):
        # an empty string fell back to the default: "encoding": "" ran coherent
        cfg = tmp_path / "run.json"
        protocol = {"kind": "frame-two-axis", "num_spins": 4, key: ""}
        cfg.write_text(json.dumps({"protocol": protocol, "run": {"trials": 10, "seed": 1}}))
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", "--config", str(cfg), "--output", str(out_dir / "r.json")
        )
        assert code == 1
        assert err.startswith(f"error: {cfg}: {key} is empty")
        assert out == "" and not out_dir.exists()

    @pytest.mark.parametrize("key", ["encoding", "decoder", "tie-break"])
    def test_empty_text_setting_is_refused_in_ini(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[protocol]\nkind = frame-two-axis\nnum-spins = 4\n"
            f"{key} =\n[run]\ntrials = 10\nseed = 1\n"
        )
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", "--config", str(cfg), "--output", str(out_dir / "r.json")
        )
        assert code == 1
        assert err.startswith(f"error: {cfg}: {key.replace('-', '_')} is empty")
        assert out == "" and not out_dir.exists()

    @pytest.mark.parametrize("option", ["--encoding", "--decoder", "--tie-break", "--output"])
    def test_empty_text_option_is_refused(self, capsys, tmp_path, monkeypatch, option):
        # an empty option fell back to the default: --encoding "" ran coherent
        out_dir = tmp_path / "out"
        monkeypatch.setenv(OUTPUT_DIR_VAR, str(out_dir))
        code, out, err = run(
            capsys, "simulate", "--kind", "frame-two-axis", "--num-spins", "4",
            "--trials", "10", "--seed", "1", option, "",
        )
        assert code == 1
        assert err.startswith(f"error: {option} is empty")
        assert out == "" and not out_dir.exists()

    def test_null_text_setting_takes_its_default(self, capsys, tmp_path):
        # a JSON null is a key left out, unlike an empty string
        cfg = tmp_path / "run.json"
        protocol = {"kind": "frame-two-axis", "num_spins": 4, "encoding": None, "decoder": None}
        cfg.write_text(json.dumps({"protocol": protocol, "run": {"trials": 10, "seed": 1}}))
        path, out = simulate_record(capsys, tmp_path, "r.json", "--config", str(cfg))
        assert "frame-two-axis N=4 coherent/best-fit" in out
        assert read_record(str(path)).config["protocol"]["encoding"] == "coherent"

    def test_missing_required_settings(self, capsys):
        code, _, err = run(capsys, "simulate", "--kind", "d3-single")
        assert code == 1
        assert "missing required settings" in err

    def test_bad_trials(self, capsys):
        code, _, err = run(
            capsys,
            "simulate",
            "--kind",
            "d3-single",
            "--num-spins",
            "1",
            "--trials",
            "-5",
            "--seed",
            "1",
        )
        assert code == 1
        assert "trials" in err

    def test_vote_at_enumeration_limit_prints_exact_reference(self, capsys, tmp_path):
        # 13 shots: past n = 12, the largest vote whose weights int64 can sum
        _, out = simulate_record(
            capsys,
            tmp_path,
            "vote.json",
            "--kind",
            "d3-repeated",
            "--num-spins",
            "13",
            "--trials",
            "2000",
            "--seed",
            "5",
        )
        assert "exact reference 0.550564" in out

    def test_frame_naive_prints_clamp_count(self, capsys, tmp_path):
        _, out = simulate_record(
            capsys,
            tmp_path,
            "naive.json",
            "--kind",
            "frame-two-axis",
            "--num-spins",
            "4",
            "--encoding",
            "optimal",
            "--decoder",
            "naive-euler",
            "--trials",
            "2000",
            "--seed",
            "3",
        )
        assert "per-axis infidelity:" in out
        assert "estimator clamps (|sin phi| > 1):" in out

    def test_frame_best_fit_has_no_clamp_line(self, capsys, tmp_path):
        _, out = simulate_record(
            capsys,
            tmp_path,
            "fit.json",
            "--kind",
            "frame-two-axis",
            "--num-spins",
            "4",
            "--encoding",
            "optimal",
            "--trials",
            "2000",
            "--seed",
            "3",
        )
        assert "per-axis infidelity:" in out
        assert "estimator clamps" not in out

    def test_derived_output_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_VAR, str(tmp_path))
        code, out, _ = run(
            capsys,
            "simulate",
            "--kind",
            "d3-single",
            "--num-spins",
            "1",
            "--trials",
            "2000",
            "--seed",
            "3",
        )
        assert code == 0
        expected = tmp_path / "d3-single-N1-t2000-s3.json"
        assert expected.exists()
        assert str(expected) in out

    def test_empty_output_dir_is_refused(self, capsys, tmp_path, monkeypatch):
        # an empty variable ran the whole experiment, then failed to make
        # the directory '' and exited 2
        monkeypatch.setenv(OUTPUT_DIR_VAR, "")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, "simulate", "--kind", "d3-single", "--num-spins", "1",
            "--trials", "10", "--seed", "1",
        )
        assert code == 1
        assert err.startswith(f"error: {OUTPUT_DIR_VAR} is empty")
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["missing/r.json", "."])
    def test_bad_output_fails_before_the_run(self, capsys, tmp_path, monkeypatch, target):
        # a record path under a missing directory, or naming a directory, ran
        # the whole experiment first and then failed to open the file
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda config: calls.append(config))
        path = tmp_path / target
        code, out, err = run(
            capsys, "simulate", "--kind", "d3-coherent", "--num-spins", "4",
            "--trials", "10", "--seed", "1", "--output", str(path),
        )
        assert code == 2
        assert err.startswith(f"error: output {path}")
        assert out == "" and calls == [] and list(tmp_path.iterdir()) == []

    def test_rerun_reproduces_estimates(self, capsys, tmp_path):
        args = ("--kind", "d3-coherent", "--num-spins", "4", "--trials", "6000",
                "--seed", "11")
        p1, _ = simulate_record(capsys, tmp_path, "a.json", *args)
        p2, _ = simulate_record(capsys, tmp_path, "b.json", *args)
        a = json.loads(p1.read_text())["result"]
        b = json.loads(p2.read_text())["result"]
        assert a["estimates"] == b["estimates"]
        assert a["stderrs"] == b["stderrs"]

    def test_quadrature_size_flags_are_gone(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--kind", "d3-coherent", "--num-spins", "4",
            "--trials", "100", "--seed", "5", "--n-theta", "10",
        )
        assert code == 1
        assert "--n-theta" in err

    def test_quadrature_size_setting_is_unknown(self, capsys, tmp_path):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(
            "[protocol]\nkind = d3-coherent\nnum-spins = 4\n"
            "[run]\ntrials = 100\nseed = 5\nn-theta = 48\n"
        )
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "unknown setting 'n_theta'" in err


class TestRecords:
    def test_write_read_write_is_byte_stable(self, capsys, tmp_path):
        path, _ = simulate_record(
            capsys,
            tmp_path,
            "rec.json",
            "--kind",
            "d3-single",
            "--num-spins",
            "1",
            "--trials",
            "2000",
            "--seed",
            "8",
        )
        first = path.read_text()
        record = read_record(str(path))
        again = tmp_path / "again.json"
        write_record(record, str(again))
        assert again.read_text() == first
        assert record_to_json(record) == first

    def test_numpy_integer_config_round_trips(self, tmp_path):
        config = RunConfig(ProtocolSpec("d3-single", np.int64(1)), np.int64(100),
                           np.int64(3))
        path = tmp_path / "np.json"
        write_record(record_from_run(config, run_experiment(config)), str(path))
        saved = read_record(str(path)).config
        assert (saved["protocol"]["num_spins"], saved["trials"], saved["seed"]) == (1, 100, 3)

    def test_failed_write_leaves_no_file(self, tmp_path):
        record = ResultRecord(schema_version=1, timestamp="t",
                              config={"trials": np.int64(1)}, result={})
        path = tmp_path / "bad.json"
        with pytest.raises(TypeError):
            write_record(record, str(path))
        assert not path.exists()

    def test_read_record_rejects_foreign_json(self, tmp_path):
        bad = tmp_path / "foreign.json"
        bad.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ValueError, match="not a result record"):
            read_record(str(bad))


class TestReport:
    @pytest.fixture()
    def two_records(self, capsys, tmp_path):
        single, _ = simulate_record(
            capsys, tmp_path, "s.json",
            "--kind", "d3-single", "--num-spins", "1",
            "--trials", "2000", "--seed", "4",
        )
        frame, _ = simulate_record(
            capsys, tmp_path, "f.json",
            "--kind", "frame-two-axis", "--num-spins", "4",
            "--encoding", "optimal", "--trials", "1500", "--seed", "4",
        )
        return single, frame

    def test_csv_columns_and_values(self, capsys, two_records):
        single, frame = two_records
        code, out, _ = run(capsys, "report", str(single), str(frame))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert tuple(rows[0]) == REPORT_COLUMNS
        assert len(rows) == 3
        srow = dict(zip(REPORT_COLUMNS, rows[1]))
        frow = dict(zip(REPORT_COLUMNS, rows[2]))
        assert srow["protocol"] == "d3-single" and srow["N"] == "1"
        assert srow["per_axis_infidelity"] == ""  # only frame runs have axes
        assert frow["per_axis_infidelity"] != ""
        body = json.loads(frame.read_text())
        est = body["result"]["estimates"]
        assert float(frow["n_sq_infidelity"]) == pytest.approx(
            16.0 * est["infidelity"], rel=1e-9
        )
        assert float(frow["per_axis_infidelity"]) == pytest.approx(
            sum(est["per_axis"]) / 2.0, rel=1e-9
        )

    def test_json_format(self, capsys, two_records):
        single, frame = two_records
        code, out, _ = run(capsys, "report", str(single), str(frame), "--format", "json")
        assert code == 0
        body = json.loads(out)
        assert [r["schema_version"] for r in body] == [1, 1]
        # byte for byte the records' own bodies, as one sorted, indented list
        files = [json.loads(single.read_text()), json.loads(frame.read_text())]
        assert out == json.dumps(files, sort_keys=True, indent=2) + "\n"
        assert body[0]["config"]["protocol"]["kind"] == "d3-single"

    def test_out_file(self, capsys, tmp_path, two_records):
        single, _ = two_records
        dest = tmp_path / "table.csv"
        code, out, _ = run(capsys, "report", str(single), "--out", str(dest))
        assert code == 0
        assert f"wrote {dest}" in out
        assert dest.read_text().startswith(",".join(REPORT_COLUMNS))

    def test_empty_out_is_refused(self, capsys, tmp_path, monkeypatch, two_records):
        # --out "" printed nothing, wrote no file and exited 0
        single, _ = two_records
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code, out, err = run(capsys, "report", str(single), "--out", "")
        assert code == 1
        assert err.startswith("error: --out is empty")
        assert out == "" and sorted(tmp_path.iterdir()) == before

    def test_empty_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "report")
        assert code == 1
        assert "no input records" in err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", str(tmp_path / "absent.json"))
        assert code == 2

    def test_reads_record_with_quadrature_sizes(self, capsys, tmp_path):
        # schema-1 records written while the coherent reference took grid
        # sizes carry them in config; report still tabulates them
        fresh, _ = simulate_record(
            capsys, tmp_path, "coh.json",
            "--kind", "d3-coherent", "--num-spins", "4",
            "--trials", "2000", "--seed", "5",
        )
        body = json.loads(fresh.read_text())
        assert "n_theta" not in body["config"] and "n_phi" not in body["config"]
        body["config"].update(n_theta=48, n_phi=87)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(body))
        code, out, _ = run(capsys, "report", str(old), str(fresh))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 3
        assert rows[1] == rows[2]
        assert rows[1][:3] == ["d3-coherent", "4", "coherent"]

    def test_stream_column_with_and_without_the_field(self, capsys, tmp_path, two_records):
        # a schema-1 record without a stream field was drawn by Philox
        single, frame = two_records
        body = json.loads(frame.read_text())
        assert body["result"]["stream"] == STREAM
        del body["result"]["stream"]
        old = tmp_path / "philox.json"
        old.write_text(json.dumps(body))
        code, out, _ = run(capsys, "report", str(single), str(old))
        assert code == 0
        rows = [dict(zip(REPORT_COLUMNS, r)) for r in csv.reader(io.StringIO(out))]
        assert [r["stream"] for r in rows[1:]] == [STREAM, PHILOX_STREAM]
        assert rows[2]["fidelity"] == f"{body['result']['estimates']['fidelity']:.12g}"

    def test_mixed_schema_versions_refused(self, capsys, tmp_path, two_records):
        single, frame = two_records
        doctored = json.loads(frame.read_text())
        doctored["schema_version"] = 2
        frame.write_text(json.dumps(doctored))
        code, _, err = run(capsys, "report", str(single), str(frame))
        assert code == 1
        assert err.startswith(f"error: {frame} is not a result record (schema_version 2 is not 1)")

    @pytest.mark.parametrize("version", ["1", [1], True, 99], ids=["string", "list", "bool", "99"])
    def test_schema_version_must_be_the_integer_one(self, capsys, two_records, version):
        # "1" and [1] crashed with a TypeError; 99 was tabulated as version 1
        single, frame = two_records
        doctored = json.loads(frame.read_text())
        doctored["schema_version"] = version
        frame.write_text(json.dumps(doctored))
        code, out, err = run(capsys, "report", str(single), str(frame))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {frame} is not a result record (schema_version {version!r}")

    @pytest.mark.parametrize(
        "body", [b'{"schema_version": 1,\n\t"x": "a\x01"}', b'{"a": "\xff\xfe"}'],
        ids=["malformed-json", "not-utf8"],
    )
    def test_broken_record_is_named(self, capsys, tmp_path, two_records, body):
        single, _ = two_records
        bad = tmp_path / "bad.json"
        bad.write_bytes(body)
        code, _, err = run(capsys, "report", str(single), str(bad))
        assert code == 1
        assert f"{bad} is not a result record" in err


    @pytest.mark.parametrize("field", ["protocol", "estimate"])
    def test_incomplete_record_is_named(self, capsys, tmp_path, two_records, field):
        single, _ = two_records
        if field == "protocol":
            body = {"schema_version": 1, "timestamp": "x", "config": {}, "result": {}}
        else:
            body = json.loads(single.read_text())
            body["result"]["estimates"]["fidelity"] = "high"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        code, _, err = run(capsys, "report", str(single), str(bad))
        assert code == 1
        assert f"error: {bad} is not a result record" in err


class TestEntryPoint:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "spindir" in out

    def test_bare_invocation_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_command_exit_code_is_returned(self, capsys, monkeypatch):
        # without standalone mode click returns a raised Exit's code; main
        # dropped it and returned 0
        @click.group()
        def group():
            pass

        @group.command("fail")
        def fail():
            raise click.exceptions.Exit(3)

        monkeypatch.setattr(cli, "cli", group)
        code, _, _ = run(capsys, "fail")
        assert code == 3

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "No such command" in err
