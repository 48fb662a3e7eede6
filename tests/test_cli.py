import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import click
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import satool
from satool.cli import main
from satool.surrogate import ForwardPipeline
from satool.trace import _HEADER, TRACE_MAGIC, TRACE_VERSION


@pytest.fixture()
def runner():
    return CliRunner()


def gen_args(out, **overrides):
    args = ["gen-trace", "--out", str(out), "--layers", "2", "--heads", "3",
            "--tokens", "16", "--head-dim", "4", "--steps", "8",
            "--block-size", "4", "--velocity-shape", "4,4,4", "--seed", "5"]
    for key, value in overrides.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


@pytest.fixture()
def trace_dir(tmp_path, runner):
    out = tmp_path / "trace"
    result = runner.invoke(main, gen_args(out))
    assert result.exit_code == 0, result.output
    return out


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestGenTrace:
    def test_writes_magic_and_manifest(self, trace_dir):
        assert (trace_dir / "trace.satr").read_bytes()[:4] == b"SATR"
        manifest = json.loads((trace_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-trace"
        assert "trace.satr" in manifest["outputs"]

    def test_identical_flags_identical_bytes(self, tmp_path, runner):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, gen_args(out1)).exit_code == 0
        assert runner.invoke(main, gen_args(out2)).exit_code == 0
        assert (out1 / "trace.satr").read_bytes() == (out2 / "trace.satr").read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]

    def test_invalid_config_error_prefix(self, tmp_path, runner):
        result = runner.invoke(main, gen_args(tmp_path / "bad", tokens=15))
        assert result.exit_code == 1
        assert result.output.startswith("error:config:") or "error:config:" in result.output

    @pytest.mark.parametrize("flag, value, named", [
        ("layers", 2 ** 32, "layers"),
        ("steps", 10 ** 10, "steps"),
        ("block-size", 2 ** 32, "block_size"),
        ("velocity-shape", "1,4294967296,1", "velocity shape"),
    ])
    def test_counts_beyond_u32_fail_cleanly(self, tmp_path, runner, flag, value, named):
        # The header stores each count as a u32; 2**32 layers used to reach
        # head_parameters and fail allocating 32 GiB with a traceback.
        out = tmp_path / "big"
        args = ["gen-trace", "--out", str(out), "--layers", "1", "--steps", "1", "--heads", "1",
                "--tokens", "8", "--head-dim", "1", "--block-size", "8",
                "--velocity-shape", "1,1,1", f"--{flag}", str(value)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error:config: {named} ")
        assert "must be at most 4294967295" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("scale_min, scale_max", [
        ("0.8", "inf"), ("0.8", "1e39"), ("3e38", "3.4e38"), ("1", "1.9e19"), ("0.8", "nan"),
    ], ids=["inf", "beyond-float32", "overflowing-features", "above-2-64", "nan"])
    def test_scale_range_that_could_overflow_fails_cleanly(self, tmp_path, runner,
                                                          scale_min, scale_max):
        # An infinite range used to end in an OverflowError traceback, and
        # 3e38..3.4e38 wrote inf features that made every later output NaN.
        out = tmp_path / "big"
        result = runner.invoke(main, gen_args(out, scale_min=scale_min, scale_max=scale_max))
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.startswith("error:config: scale range must satisfy 0 < lo <= hi")
        assert not out.exists()

    def test_largest_scale_gives_finite_outputs(self, tmp_path, runner):
        trace = tmp_path / "trace"
        assert runner.invoke(main, gen_args(trace, scale_min=2 ** 63, scale_max=2 ** 64)
                             ).exit_code == 0
        result = runner.invoke(main, ["perturb", "--trace", str(trace / "trace.satr"),
                                      "--out", str(tmp_path / "pert")])
        assert result.exit_code == 0, result.output
        _, rows = read_csv(tmp_path / "pert" / "perturb.csv")
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])
        result = runner.invoke(main, ["run", "--trace", str(trace / "trace.satr"),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert math.isfinite(summary["mean_velocity_rel_l2"])


class TestAnalyze:
    def test_row_counts_and_frozen_iou(self, tmp_path, runner):
        out = tmp_path / "frozen"
        assert runner.invoke(main, gen_args(out, kappa_min="1.0", kappa_max="1.0")).exit_code == 0
        report = tmp_path / "report"
        result = runner.invoke(main, [
            "analyze", "--trace", str(out / "trace.satr"), "--out", str(report),
        ])
        assert result.exit_code == 0, result.output
        header, rows = read_csv(report / "stability.csv")
        layers, heads, steps = 2, 3, 8
        assert len(rows) == (steps - 1) * (1 + layers + layers * heads)
        iou_col = header.index("token_iou")
        assert all(float(r[iou_col]) == 1.0 for r in rows)

    def test_unstable_trace_has_lower_iou(self, tmp_path, runner):
        frozen, wobbly = tmp_path / "f", tmp_path / "w"
        assert runner.invoke(main, gen_args(frozen, kappa_min="1.0", kappa_max="1.0")).exit_code == 0
        assert runner.invoke(main, gen_args(wobbly, kappa_min="0.0", kappa_max="0.0")).exit_code == 0
        means = {}
        for name, src in (("f", frozen), ("w", wobbly)):
            report = tmp_path / f"rep_{name}"
            assert runner.invoke(main, [
                "analyze", "--trace", str(src / "trace.satr"), "--out", str(report),
            ]).exit_code == 0
            header, rows = read_csv(report / "stability.csv")
            col = header.index("token_iou")
            means[name] = np.mean([float(r[col]) for r in rows])
        assert means["w"] < means["f"]

    def test_corrupt_trace_fails_cleanly(self, tmp_path, runner):
        bad = tmp_path / "bad.satr"
        bad.write_bytes(b"XXXX" + bytes(64))
        result = runner.invoke(main, ["analyze", "--trace", str(bad), "--out", str(tmp_path / "r")])
        assert result.exit_code == 1
        assert "error:trace-format:" in result.output

    def test_overflowing_header_fails_cleanly(self, tmp_path, runner):
        # Header only; the payload size (2**16)**4 * 3 * 4 bytes exceeds 64 bits.
        big = 2 ** 16
        bad = tmp_path / "huge.satr"
        bad.write_bytes(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, big, big, big, 1, big, 1,
                                     1, 1, 1, 0.2, 0.9, 0.8, 2.0, 0))
        result = runner.invoke(main, ["analyze", "--trace", str(bad), "--out", str(tmp_path / "r")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:trace-format:" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("shape, pairs", [
        (dict(layers=1, heads=1, steps=2), 1),
        (dict(steps=1), 0),
    ], ids=["one-pair", "one-step"])
    def test_fewer_than_two_pairs_rejected_before_writing(self, tmp_path, runner, shape, pairs):
        src, out = tmp_path / "trace", tmp_path / "report"
        assert runner.invoke(main, gen_args(src, **shape)).exit_code == 0
        result = runner.invoke(main, ["analyze", "--trace", str(src / "trace.satr"),
                                      "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.startswith("error:domain: analyze needs at least two adjacent-step")
        assert f"give {pairs}" in result.output
        assert not out.exists()

    def test_seed_option_removed(self, trace_dir, tmp_path, runner):
        result = runner.invoke(main, [
            "analyze", "--trace", str(trace_dir / "trace.satr"), "--out", str(tmp_path / "r"),
            "--seed", "1",
        ])
        assert result.exit_code == 2
        assert "No such option" in result.output

    @pytest.mark.parametrize("token_p", ["0", "-1", "1.5", "nan"])
    def test_invalid_token_p_rejected(self, trace_dir, tmp_path, runner, token_p):
        out = tmp_path / "r"
        result = runner.invoke(main, [
            "analyze", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
            "--token-p", token_p,
        ])
        assert result.exit_code == 1
        assert "error:domain:" in result.output
        assert not (out / "summary.json").exists()

    def test_rerun_byte_identical(self, trace_dir, tmp_path, runner):
        outs = []
        for name in ("aa", "ab"):
            out = tmp_path / name
            assert runner.invoke(main, [
                "analyze", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
            ]).exit_code == 0
            outs.append(out)
        for fname in ("stability.csv", "drift_iou.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestCalibrate:
    def test_calibrated_beats_shared_baseline(self, trace_dir, tmp_path, runner):
        out = tmp_path / "calib"
        result = runner.invoke(main, [
            "calibrate", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
            "--budget", "shared:0.9", "--check-oracle",
        ])
        assert result.exit_code == 0, result.output
        table = json.loads((out / "calibration.json").read_text())
        header, rows = read_csv(out / "baselines.csv")
        shared = {float(r[0]): float(r[1]) for r in rows}
        assert table["objective"] <= shared[0.9]
        assert table["achieved_sparsity"] >= table["budget"]
        assert table["optimal"] is True
        assert len(table["heads"]) == 2 * 3
        # 16 blocks per head, 4 sampled steps, 6 heads.
        assert table["blocks_total"] == 16 * 4 * 6
        assert isinstance(table["blocks_kept"], int)
        assert abs((1 - table["achieved_sparsity"]) * 384 - table["blocks_kept"]) < 1e-9
        # The search record: an exact solve has no gap and counts its nodes.
        assert table["gap"] == 0.0
        assert isinstance(table["nodes"], int) and table["nodes"] >= 6 + 1
        assert isinstance(table["pruned"], int) and table["pruned"] >= 0

    def test_zero_budget_matches_min_error(self, trace_dir, tmp_path, runner):
        out = tmp_path / "calib0"
        result = runner.invoke(main, [
            "calibrate", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
            "--budget", "0",
        ])
        assert result.exit_code == 0, result.output
        table = json.loads((out / "calibration.json").read_text())
        assert table["budget"] == 0.0

    def test_infeasible_budget_reports_max(self, trace_dir, tmp_path, runner):
        result = runner.invoke(main, [
            "calibrate", "--trace", str(trace_dir / "trace.satr"),
            "--out", str(tmp_path / "x"), "--budget", "0.99",
        ])
        assert result.exit_code == 1
        assert "error:infeasible:" in result.output
        assert "achievable" in result.output

    def test_malformed_budget_rejected(self, trace_dir, tmp_path, runner):
        for budget in ("shared:abc", "lots"):
            result = runner.invoke(main, [
                "calibrate", "--trace", str(trace_dir / "trace.satr"),
                "--out", str(tmp_path / "y"), "--budget", budget,
            ])
            assert result.exit_code == 1
            assert "error:domain:" in result.output

    @pytest.mark.parametrize("budget", ["abc", "shared:0.7", "inf", "nan", "1e400", "-inf"])
    def test_budget_checked_before_the_trace_is_opened(self, tmp_path, runner, budget):
        # The trace does not exist: a bad budget must be reported, not the path.
        args = ["calibrate", "--trace", str(tmp_path / "missing.satr"),
                "--out", str(tmp_path / "out"), "--taus", "0.8,0.9"]
        result = runner.invoke(main, [*args, "--budget", budget])
        assert result.exit_code == 1
        assert result.output.startswith("error:domain: "), result.output
        result = runner.invoke(main, [*args, "--budget", "0.5"])
        assert result.exit_code == 1
        assert result.output.startswith("error:io: "), result.output
        assert not (tmp_path / "out").exists()

    def test_mse_objective_runs(self, trace_dir, tmp_path, runner):
        out = tmp_path / "mse"
        result = runner.invoke(main, [
            "calibrate", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
            "--budget", "0", "--error", "mse", "--taus", "0.9,0.95",
        ])
        assert result.exit_code == 0, result.output

    def test_rerun_byte_identical(self, trace_dir, tmp_path, runner):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "calibrate", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
                "--budget", "shared:0.9",
            ])
            assert result.exit_code == 0, result.output
            outs.append(out)
        for fname in ("calibration.json", "baselines.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_per_head_seeds_option_removed(self, trace_dir, tmp_path, runner):
        result = runner.invoke(main, [
            "calibrate", "--trace", str(trace_dir / "trace.satr"),
            "--out", str(tmp_path / "phs"), "--per-head-seeds",
        ])
        assert result.exit_code == 2
        assert "No such option" in result.output
        assert not (tmp_path / "phs").exists()

    def test_manifest_has_no_per_head_seeds(self, trace_dir, tmp_path, runner):
        out = tmp_path / "m"
        result = runner.invoke(main, [
            "calibrate", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert "per_head_seeds" not in config and config["seed"] == 0


class TestRun:
    def test_delta_zero_no_reuse(self, trace_dir, tmp_path, runner):
        out = tmp_path / "run0"
        result = runner.invoke(main, [
            "run", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
            "--delta", "0.0",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reuse_rate"] == 0.0
        assert summary["mask_predictions"] == 8 * 2 * 3

    def test_delta_inf_always_reuses(self, trace_dir, tmp_path, runner):
        out = tmp_path / "runinf"
        result = runner.invoke(main, [
            "run", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
            "--delta", "inf",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reuse_rate"] == pytest.approx(7 / 8)

    def test_reuse_monotone_over_grid(self, trace_dir, tmp_path, runner):
        rates = []
        for delta in ("0", "5", "10", "30", "100"):
            out = tmp_path / f"run{delta}"
            result = runner.invoke(main, [
                "run", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
                "--delta", delta,
            ])
            assert result.exit_code == 0, result.output
            rates.append(json.loads((out / "summary.json").read_text())["reuse_rate"])
        assert rates == sorted(rates)

    def test_tau_one_equals_dense_bitwise(self, tmp_path, runner):
        # One score on this trace lies below the rounding of the mass before
        # it; tau = 1 must keep that block too.
        trace = tmp_path / "tiny"
        assert runner.invoke(main, gen_args(trace, layers=1, heads=2, tokens=4, head_dim=1,
                                            steps=6, block_size=1, seed=4)).exit_code == 0
        out = tmp_path / "run_dense"
        result = runner.invoke(main, [
            "run", "--trace", str(trace / "trace.satr"), "--out", str(out), "--tau", "1.0",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_velocity_rel_l2"] == 0.0
        assert summary["mean_realized_sparsity"] == 0.0

    def test_run_with_table_and_mask_hex(self, trace_dir, tmp_path, runner):
        calib = tmp_path / "calib"
        assert runner.invoke(main, [
            "calibrate", "--trace", str(trace_dir / "trace.satr"), "--out", str(calib),
            "--budget", "shared:0.9",
        ]).exit_code == 0
        out = tmp_path / "run_t"
        result = runner.invoke(main, [
            "run", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
            "--table", str(calib / "calibration.json"), "--delta", "2.0",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        for head in summary["heads"]:
            packed = np.frombuffer(bytes.fromhex(head["anchor_mask"]["bits"]), dtype=np.uint8)
            assert np.unpackbits(packed)[:head["anchor_mask"]["m"]].sum() >= 1

    def test_run_csv_columns(self, trace_dir, tmp_path, runner):
        out = tmp_path / "runcsv"
        assert runner.invoke(main, [
            "run", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
            "--delta", "1.0", "--gate-lo", "0", "--gate-hi", "1",
        ]).exit_code == 0
        header, rows = read_csv(out / "run.csv")
        assert header == ["step", "layer", "head", "decision", "drift",
                          "realized_sparsity", "changed_block_ratio"]
        assert len(rows) == 8 * 2 * 3
        decisions = {r[3] for r in rows}
        assert "cold_start" in decisions

    def test_bad_delta_rejected(self, trace_dir, tmp_path, runner):
        result = runner.invoke(main, [
            "run", "--trace", str(trace_dir / "trace.satr"),
            "--out", str(tmp_path / "x"), "--delta", "-3",
        ])
        assert result.exit_code == 1
        assert "error:domain:" in result.output

    def test_nan_delta_rejected(self, trace_dir, tmp_path, runner):
        result = runner.invoke(main, [
            "run", "--trace", str(trace_dir / "trace.satr"),
            "--out", str(tmp_path / "x"), "--delta", "nan",
        ])
        assert result.exit_code == 1
        assert "error:domain:" in result.output
        assert not (tmp_path / "x" / "summary.json").exists()

    def test_rerun_byte_identical(self, trace_dir, tmp_path, runner):
        outs = []
        for name in ("ra", "rb"):
            out = tmp_path / name
            assert runner.invoke(main, [
                "run", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
                "--delta", "4.0",
            ]).exit_code == 0
            outs.append(out)
        for fname in ("run.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_seed_option_removed(self, trace_dir, tmp_path, runner):
        result = runner.invoke(main, [
            "run", "--trace", str(trace_dir / "trace.satr"), "--out", str(tmp_path / "r"),
            "--seed", "1",
        ])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_manifest_has_no_seed(self, trace_dir, tmp_path, runner):
        out = tmp_path / "rm"
        assert runner.invoke(main, [
            "run", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
        ]).exit_code == 0
        assert "seed" not in json.loads((out / "manifest.json").read_text())["config"]

    def test_malformed_table_rejected(self, trace_dir, tmp_path, runner):
        bad = tmp_path / "table.json"
        bad.write_text("{\"heads\": [{\"layer\": 0}]}")
        result = runner.invoke(main, [
            "run", "--trace", str(trace_dir / "trace.satr"),
            "--out", str(tmp_path / "z"), "--table", str(bad), "--delta", "1",
        ])
        assert result.exit_code == 1
        assert "error:domain:" in result.output


def table_payload(heads):
    return {"budget": 0.0, "objective": 0.0, "achieved_sparsity": 0.0,
            "solver": "hand", "optimal": True,
            "heads": [{"layer": layer, "head": head, "tau": tau, "S": 0.0, "E": 0.0}
                      for layer, head, tau in heads]}


def full_table(tau=0.9):
    return [[layer, head, tau] for layer in range(2) for head in range(3)]


class TestRunTable:
    """``run --table`` must name each (layer, head) of the 2x3 trace exactly once."""

    def run_table(self, trace_dir, tmp_path, runner, payload):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(payload))
        return runner.invoke(main, [
            "run", "--trace", str(trace_dir / "trace.satr"), "--out", str(tmp_path / "r"),
            "--table", str(table), "--delta", "1",
        ])

    def test_complete_table_runs(self, trace_dir, tmp_path, runner):
        heads = full_table()
        heads[4][2] = 0.7
        result = self.run_table(trace_dir, tmp_path, runner, table_payload(heads))
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert [h["tau"] for h in summary["heads"]] == [0.9, 0.9, 0.9, 0.9, 0.7, 0.9]

    @pytest.mark.parametrize("edit", ["layer 99", "layer -1", "head 3", "duplicate", "missing"])
    def test_bad_coverage_rejected(self, trace_dir, tmp_path, runner, edit):
        heads = full_table()
        if edit == "layer 99":
            heads[5][0] = 99
        elif edit == "layer -1":
            heads[0][0] = -1
        elif edit == "head 3":
            heads[2][1] = 3
        elif edit == "duplicate":
            heads[1] = [0, 0, 0.8]
        else:
            del heads[3]
        result = self.run_table(trace_dir, tmp_path, runner, table_payload(heads))
        assert result.exit_code == 1
        assert "error:shape:" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "r" / "summary.json").exists()

    @pytest.mark.parametrize("tau", [0.0, 1.5, -0.2])
    def test_invalid_tau_rejected(self, trace_dir, tmp_path, runner, tau):
        heads = full_table()
        heads[2][2] = tau
        result = self.run_table(trace_dir, tmp_path, runner, table_payload(heads))
        assert result.exit_code == 1
        assert "error:domain:" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("key, value", [
        ("layer", 0.7), ("layer", "0"), ("layer", True), ("head", "1"), ("head", 1.0),
        ("tau", "0.9"), ("tau", True), ("S", "0"), ("E", False),
        ("budget", True), ("objective", "0"), ("achieved_sparsity", "0.5"),
        ("solver", 1), ("optimal", "false"), ("optimal", 1), ("heads", {}),
    ])
    def test_mistyped_field_rejected(self, trace_dir, tmp_path, runner, key, value):
        payload = table_payload(full_table())
        if key in payload:
            payload[key] = value
        else:
            payload["heads"][0][key] = value
        result = self.run_table(trace_dir, tmp_path, runner, payload)
        assert result.exit_code == 1
        assert "error:domain:" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "r" / "summary.json").exists()


class TestGateForcedSummary:
    def test_forced_count_reported(self, trace_dir, tmp_path, runner):
        counts = {}
        for name, flags in (("gated", ["--gate-lo", "0.4", "--gate-hi", "0.6"]),
                            ("ungated", ["--gate-lo", "0", "--gate-hi", "1"])):
            out = tmp_path / name
            result = runner.invoke(main, [
                "run", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
                "--delta", "2.0", *flags,
            ])
            assert result.exit_code == 0, result.output
            counts[name] = json.loads((out / "summary.json").read_text())["gate_forced"]
        assert counts["ungated"] == 0
        assert counts["gated"] > 0


@pytest.mark.parametrize("scale_range", [(0.8, math.inf), (3e38, 3.4e38)],
                         ids=["inf", "overflowing-features"])
@pytest.mark.parametrize("command", ["analyze", "calibrate", "run", "perturb"])
def test_header_scale_range_that_could_overflow_fails_cleanly(tmp_path, runner, command,
                                                              scale_range):
    path = tmp_path / "trace.satr"
    path.write_bytes(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                  0.2, 0.9, *scale_range, 0) + bytes(12))
    result = runner.invoke(main, [command, "--trace", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error:trace-format: {path}: invalid header config: "
                                    "scale range must satisfy")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["analyze", "calibrate", "run", "perturb"])
def test_non_finite_payload_fails_cleanly(trace_dir, tmp_path, runner, command, value):
    # The first payload float is Q of head (0, 0) at step 0, which every command reads.
    path = tmp_path / "poisoned.satr"
    raw = bytearray((trace_dir / "trace.satr").read_bytes())
    raw[_HEADER.size:_HEADER.size + 4] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--trace", str(path), "--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert result.output.startswith(f"error:trace-format: {path}: "), result.output
    assert result.output.endswith(" holds a value that is not finite\n"), result.output
    assert not out.exists()


class TestOversizedProjection:
    @pytest.fixture()
    def huge_field_trace(self, tmp_path):
        # One tiny head with a valid 12-byte payload, but a 65535^3 velocity
        # field: the surrogate weight alone would need 2 PB.
        path = tmp_path / "huge_field.satr"
        header = _HEADER.pack(TRACE_MAGIC, TRACE_VERSION, 1, 1, 1, 1, 1, 1,
                              65535, 65535, 65535, 0.2, 0.9, 0.8, 2.0, 0)
        path.write_bytes(header + np.zeros(3, dtype="<f4").tobytes())
        return path

    @pytest.mark.parametrize("command", ["calibrate", "run", "analyze", "perturb"])
    def test_fails_cleanly_before_allocating(self, huge_field_trace, tmp_path, runner, command):
        result = runner.invoke(main, [command, "--trace", str(huge_field_trace),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error:trace-format:")
        assert "surrogate projection" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()

    def test_gen_trace_rejects_oversized_field(self, tmp_path, runner):
        result = runner.invoke(main, gen_args(tmp_path / "big", velocity_shape="1024,1024,1024"))
        assert result.exit_code == 1
        assert result.output.startswith("error:config:")
        assert "Traceback" not in result.output


class TestPerturb:
    def test_rows_and_ratio(self, trace_dir, tmp_path, runner):
        out = tmp_path / "pert"
        result = runner.invoke(main, [
            "perturb", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
            "--alpha", "0.1", "--seeds", "0,1", "--steps", "0,1,2",
        ])
        assert result.exit_code == 0, result.output
        header, rows = read_csv(out / "perturb.csv")
        assert len(rows) == 4 * 2
        ratio_col = header.index("norm_ratio")
        for row in rows:
            assert abs(float(row[ratio_col]) - 0.1) <= 1e-6

    def test_alpha_zero_rows(self, trace_dir, tmp_path, runner):
        out = tmp_path / "pert0"
        result = runner.invoke(main, [
            "perturb", "--trace", str(trace_dir / "trace.satr"), "--out", str(out),
            "--alpha", "0.0", "--seeds", "0", "--steps", "0,1",
        ])
        assert result.exit_code == 0, result.output
        header, rows = read_csv(out / "perturb.csv")
        rel_col = header.index("rel_l2")
        psnr_col = header.index("psnr_db")
        for row in rows:
            assert float(row[rel_col]) == 0.0
            assert row[psnr_col] == "inf"


@pytest.mark.parametrize("command, flags", [
    ("calibrate", ["--budget", "nan"]),
    ("calibrate", ["--budget", "-inf"]),
    ("calibrate", ["--seed", "-1"]),
    ("perturb", ["--seeds", "-5"]),
    ("perturb", ["--alpha", "nan"]),
    ("perturb", ["--alpha", "inf"]),
    ("perturb", ["--alpha", "1e308"]),
    ("perturb", ["--seeds", ""]),
    ("perturb", ["--steps", ","]),
    ("perturb", ["--steps", "1,1,2"]),
], ids=["budget-nan", "budget-neg-inf", "calibrate-seed-negative",
        "seeds-negative", "alpha-nan", "alpha-inf", "alpha-huge", "seeds-empty", "steps-empty",
        "steps-repeated"])
def test_invalid_value_fails_cleanly(trace_dir, tmp_path, runner, command, flags):
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--trace", str(trace_dir / "trace.satr"),
                                  "--out", str(out), *flags])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("error:domain:"), result.output
    assert not out.exists()


@pytest.mark.parametrize("taus, budget", [
    (",", "0"), ("nan", "shared:0.9"), ("0.9,0.9000000000001", "shared:0.9"),
], ids=["empty", "nan", "near-duplicate"])
def test_bad_candidates_blame_the_thresholds(trace_dir, tmp_path, runner, monkeypatch,
                                             taus, budget):
    dense = []
    monkeypatch.setattr(ForwardPipeline, "dense_forward", lambda self, step: dense.append(step))
    out = tmp_path / "out"
    result = runner.invoke(main, ["calibrate", "--trace", str(trace_dir / "trace.satr"),
                                  "--out", str(out), "--taus", taus, "--budget", budget])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert re.match(r"error:domain: .*candidate threshold", result.output), result.output
    assert dense == [] and not out.exists()


@pytest.mark.parametrize("weights", ["inf,1,1,1", "nan,1,1,1", "1,1,-inf,1"])
def test_non_finite_weights_blame_the_weights(trace_dir, tmp_path, runner, weights):
    out = tmp_path / "out"
    result = runner.invoke(main, ["calibrate", "--trace", str(trace_dir / "trace.satr"),
                                  "--out", str(out), "--weights", weights])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("error:domain: band weights must be finite"), result.output
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("gen-trace", ["--kappa", "0.7"]),
    ("run", ["--no-gate"]),
    ("run", ["--normalized-delta"]),
    ("perturb", ["--seed", "7"]),
], ids=["kappa", "no-gate", "normalized-delta", "perturb-seed"])
def test_alias_option_removed(trace_dir, tmp_path, runner, command, flags):
    # Each spelled a setting another flag already expresses; see the README.
    out = tmp_path / "out"
    source = [] if command == "gen-trace" else ["--trace", str(trace_dir / "trace.satr")]
    result = runner.invoke(main, [command, *source, "--out", str(out), *flags])
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert not out.exists()


def test_manifests_drop_alias_keys(trace_dir, tmp_path, runner):
    trace = str(trace_dir / "trace.satr")
    for command, flags in (("run", []), ("perturb", ["--seeds", "7,8", "--steps", "0"])):
        out = tmp_path / command
        result = runner.invoke(main, [command, "--trace", trace, "--out", str(out), *flags])
        assert result.exit_code == 0, result.output
        config = json.loads((out / "manifest.json").read_text())["config"]
        if command == "run":
            assert "normalized_delta" not in config
            assert config["gate"] == [0.1, 0.9]
        else:
            assert "seed" not in config
            assert config["seeds"] == [7, 8]


def test_huge_negative_budget_matches_zero_budget(trace_dir, tmp_path, runner):
    tables = []
    for budget in ("0", "-1e308"):
        out = tmp_path / budget
        result = runner.invoke(main, ["calibrate", "--trace", str(trace_dir / "trace.satr"),
                                      "--out", str(out), "--budget", budget])
        assert result.exit_code == 0, result.output
        tables.append(json.loads((out / "calibration.json").read_text()))
    assert tables[0]["heads"] == tables[1]["heads"]


@pytest.mark.parametrize("shape, message", [
    # The perfbench many-heads shape: every mean error is finite, but the
    # largest objective, their sum over 64 heads, is not.
    (dict(layers=4, heads=16, tokens=32, head_dim=8, steps=40, seed=3),
     "measured errors overflow when summed over heads"),
    # Some head's errors at its four sampled steps overflow when summed for the mean.
    ({}, "measured errors must be finite"),
    # One head's four band ratios at step 0 and tau 0.2 sum to 1.32, so its
    # weighted error overflows.
    (dict(layers=1, heads=2, tokens=384, head_dim=32, steps=4, block_size=32,
          kappa_min=0.95, kappa_max=0.999, scale_min=3, scale_max=6, seed=3),
     "measured errors must be finite"),
], ids=["over-heads", "over-steps", "over-bands"])
def test_errors_that_overflow_fail_cleanly(tmp_path, runner, shape, message):
    # -W error: no numpy warning may escape on the way to the error line.
    source, out = tmp_path / "trace", tmp_path / "out"
    assert runner.invoke(main, gen_args(source, **shape)).exit_code == 0
    env = {**os.environ, "PYTHONPATH": str(Path(satool.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "satool.cli", "calibrate",
         "--trace", str(source / "trace.satr"), "--out", str(out),
         "--weights", "1.7e308,1.7e308,1.7e308,1.7e308", "--taus", "0.2,0.9",
         "--budget", "shared:0.2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (result.returncode, result.stderr) == (1, f"error:domain: {message}\n")
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("command, code", [
    (["analyze", "--trace", "{fifo}"], "trace-format"),
    (["perturb", "--trace", "{fifo}"], "trace-format"),
    (["run", "--trace", "{trace}", "--table", "{fifo}"], "domain"),
], ids=["analyze-trace", "perturb-trace", "run-table"])
def test_a_fifo_input_fails_without_waiting_for_a_writer(trace_dir, tmp_path, command, code):
    # A blocking open() of a FIFO waits for a writer; the timeout turns that hang into a failure.
    fifo, out = tmp_path / "fifo", tmp_path / "out"
    os.mkfifo(fifo)
    args = [arg.format(fifo=fifo, trace=trace_dir / "trace.satr") for arg in command]
    env = {**os.environ, "PYTHONPATH": str(Path(satool.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "satool.cli", *args, "--out", str(out)],
                            capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, result.stderr) == (1, f"error:{code}: {fifo}: not a regular file\n")
    assert not out.exists()


@pytest.mark.parametrize("payload", [
    "[" * 100_000 + "]" * 100_000,
    '{"heads": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["top-level", "in-heads"])
def test_a_deeply_nested_table_fails_cleanly(trace_dir, tmp_path, payload):
    # json's decoder gives up on such nesting with a RecursionError.
    table, out = tmp_path / "deep.json", tmp_path / "out"
    table.write_text(payload)
    env = {**os.environ, "PYTHONPATH": str(Path(satool.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "satool.cli", "run", "--trace",
                             str(trace_dir / "trace.satr"), "--table", str(table),
                             "--out", str(out)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error:domain: invalid calibration table {table}: ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert not out.exists()


# A cap on the child's address space, so that allocations of tens of GiB
# fail at once instead of being attempted.
ADDRESS_SPACE_LIMIT = 3 << 30
TINY_HEADS = ["--heads", "1", "--head-dim", "1", "--velocity-shape", "1,1,1"]


def capped_cli(args, cwd):
    """``python -m satool.cli *args`` in a child whose address space is capped."""
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(
        ADDRESS_SPACE_LIMIT, hard)
    env = {**os.environ, "PYTHONPATH": str(Path(satool.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "satool.cli", *args], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


@pytest.mark.parametrize("command", ["perturb", "gen-trace"])
def test_an_allocation_numpy_refuses_fails_cleanly(tmp_path, command):
    # perturb: one 65536-token head's logits take 32 GiB; gen-trace: 4e9
    # layers' head parameters take 29.8 GiB.
    if command == "perturb":
        made = capped_cli(["gen-trace", "--out", "trace", *TINY_HEADS, "--layers", "1",
                           "--tokens", "65536", "--steps", "2", "--block-size", "65536"], tmp_path)
        assert made.returncode == 0, made.stderr
        args = ["perturb", "--trace", "trace/trace.satr"]
    else:
        args = ["gen-trace", *TINY_HEADS, "--layers", "4000000000", "--tokens", "1",
                "--steps", "1", "--block-size", "1"]
    result = capped_cli([*args, "--out", "out"], tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith("error:memory: Unable to allocate ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_a_failed_gen_trace_removes_the_directories_it_made(tmp_path):
    # The 4e9-layer config fails with error:memory after the directories are
    # made; "kept" existed before and stays, empty.
    (tmp_path / "kept").mkdir()
    args = ["gen-trace", *TINY_HEADS, "--layers", "4000000000", "--tokens", "1",
            "--steps", "1", "--block-size", "1"]
    for out in ("g", "kept/new/g"):
        result = capped_cli([*args, "--out", out], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error:memory: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["kept"]
    assert not any((tmp_path / "kept").iterdir())


@pytest.fixture(scope="module")
def tiny_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    result = CliRunner().invoke(main, [
        "gen-trace", "--out", str(out), "--layers", "1", "--heads", "2", "--tokens", "8",
        "--head-dim", "2", "--steps", "4", "--block-size", "4", "--velocity-shape", "2,2,2",
    ])
    assert result.exit_code == 0, result.output
    return out / "trace.satr"


FLOAT_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 0.5, 1.0, 2.0,
                     1e308, -1e308, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
).map(repr)
INT_VALUES = st.one_of(
    st.sampled_from([0, -1, 1, 4, 5, 2 ** 63, -(2 ** 63), 10 ** 30]),
    st.integers(-10 ** 6, 10 ** 6),
).map(str)
INT_LISTS = st.lists(INT_VALUES, max_size=3).map(",".join)
FLOAT_LISTS = st.lists(FLOAT_VALUES, min_size=4, max_size=4).map(",".join)
# Candidate lists: empty, NaN, near-duplicate (within the 1e-12 match tolerance),
# or up to three arbitrary values.
TAU_LISTS = st.one_of(
    st.sampled_from([",", "nan", "0.9,0.9000000000001", "0.9,1.0", "0.5,0.9,1.0"]),
    st.lists(FLOAT_VALUES, max_size=3).map(",".join),
)
# Trace counts: rejected values, or ones small enough that any accepted
# config is a tiny trace.  Counts just below 2**32 pass the check and
# would allocate that much, so they are left out.
COUNT_VALUES = st.one_of(
    st.sampled_from([0, -1, 2 ** 32, 2 ** 32 + 1, 10 ** 10, 2 ** 63, -(2 ** 63), 10 ** 30]),
    st.integers(1, 4),
).map(str)
# gen-trace's flags a draw leaves out take these tiny values, not the defaults.
GEN_BASE = ["--layers", "1", "--heads", "1", "--tokens", "4", "--head-dim", "1", "--steps", "1",
            "--block-size", "1", "--velocity-shape", "1,1,1"]
NUMERIC_FLAGS = {
    "gen-trace": {"--layers": COUNT_VALUES, "--heads": COUNT_VALUES, "--tokens": COUNT_VALUES,
                  "--head-dim": COUNT_VALUES, "--steps": COUNT_VALUES,
                  "--block-size": COUNT_VALUES,
                  "--velocity-shape": st.lists(COUNT_VALUES, min_size=3, max_size=3).map(",".join),
                  "--kappa-min": FLOAT_VALUES, "--kappa-max": FLOAT_VALUES,
                  "--scale-min": FLOAT_VALUES, "--scale-max": FLOAT_VALUES,
                  "--seed": INT_VALUES},
    "calibrate": {"--budget": FLOAT_VALUES, "--seed": INT_VALUES, "--intervals": INT_VALUES,
                  "--weights": FLOAT_LISTS, "--taus": TAU_LISTS},
    "perturb": {"--alpha": FLOAT_VALUES, "--seeds": INT_LISTS},
    "run": {"--delta": FLOAT_VALUES, "--tau": FLOAT_VALUES, "--gate-lo": FLOAT_VALUES,
            "--gate-hi": FLOAT_VALUES},
    "analyze": {"--tau": FLOAT_VALUES, "--token-p": FLOAT_VALUES},
}


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_numeric_flags_exit_cleanly(tiny_trace, data):
    """Any numeric flag value ends in exit 0 or in one error:<code>: line, never a traceback."""
    command = data.draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    args = [command, *(GEN_BASE if command == "gen-trace" else ["--trace", str(tiny_trace)])]
    for flag, values in NUMERIC_FLAGS[command].items():
        value = data.draw(st.none() | values, label=flag)
        if value is not None:
            args += [flag, value]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        result = CliRunner().invoke(main, [*args, "--out", str(out)])
        if result.exit_code == 0:
            assert (out / "manifest.json").exists()
        else:
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit), \
                (args, result.exception)
            assert re.match(r"error:[a-z-]+: ", result.output), (args, result.output)
            assert not out.exists(), args


def stderr_runner():
    """A CliRunner whose results keep stderr apart: click 8.1 needs mix_stderr=False, 8.2 removed it."""
    try:
        return CliRunner(mix_stderr=False)
    except TypeError:
        return CliRunner()


# Text that parses as a number, or nearly: signs, nan/inf spellings, overflow.
NUMBER_TEXT = st.one_of(
    st.sampled_from(["0", "-0", "+1", "-1", "1", "0.5", "nan", "-nan", "inf", "+inf", "-inf",
                     "Infinity", "1e999", "-1e999", "5e-324", " 0.9 ", "1_0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
)
JUNK_TEXT = st.one_of(st.sampled_from(["", " ", "x", "-", "+", ".", "e5", "0x10", "1e", "1,",
                                       ",1", "1..2", "shared:"]), st.text(max_size=4))
TEXT = NUMBER_TEXT | JUNK_TEXT
LIST_TEXT = st.lists(TEXT, max_size=5).map(",".join)
# gen-trace's counts never draw NUMBER_TEXT: a count such as 10**8 passes the
# u32 check and asks for gigabytes.
GEN_COUNT = COUNT_VALUES | JUNK_TEXT
# One strategy per flag: every value flag of the six commands but the paths.
BAD_VALUES = {
    **{("gen-trace", flag): GEN_COUNT for flag in (
        "--layers", "--heads", "--tokens", "--head-dim", "--steps", "--block-size")},
    ("gen-trace", "--velocity-shape"): st.lists(GEN_COUNT, max_size=4).map(",".join),
    **{("gen-trace", flag): TEXT for flag in (
        "--kappa-min", "--kappa-max", "--scale-min", "--scale-max", "--seed")},
    ("analyze", "--token-p"): TEXT,
    ("analyze", "--tau"): TEXT,
    ("calibrate", "--taus"): LIST_TEXT,
    ("calibrate", "--weights"): LIST_TEXT,
    ("calibrate", "--budget"): TEXT | NUMBER_TEXT.map("shared:".__add__),
    ("calibrate", "--intervals"): TEXT,
    ("calibrate", "--error"): st.sampled_from(["fft", "mse"]) | JUNK_TEXT,
    ("calibrate", "--seed"): TEXT,
    ("run", "--tau"): TEXT,
    ("run", "--delta"): TEXT,
    ("run", "--gate-lo"): TEXT,
    ("run", "--gate-hi"): TEXT,
    ("perturb", "--alpha"): TEXT,
    ("perturb", "--seeds"): LIST_TEXT,
    ("perturb", "--steps"): LIST_TEXT,
    **{("footprint", flag): TEXT for flag in (
        "--layers", "--heads", "--tokens", "--head-dim", "--bytes-per-scalar", "--branches",
        "--block-align")},
}


def command_input(command, trace):
    """The flags a command needs besides ``--out``: a tiny shape, the trace, or none."""
    return {"gen-trace": GEN_BASE, "footprint": []}.get(command, ["--trace", str(trace)])


def value_flags(command):
    return {opt.opts[0] for opt in main.commands[command].params
            if not opt.is_flag and opt.opts[0] not in ("--out", "--trace", "--table")}


def test_bad_values_cover_every_value_flag():
    assert set(BAD_VALUES) == {(command, flag) for command in main.commands
                               for flag in value_flags(command)}


def assert_one_error_line(result, args, prefix="error:"):
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), \
        (args, result.exception)
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), (args, result.stderr)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_bad_flag_value_fails_with_one_error_line(tiny_trace, data):
    """One flag at a time: exit 0, or exit 1 with one ``error:`` line on stderr and no traceback."""
    command, flag = data.draw(st.sampled_from(sorted(BAD_VALUES)), label="flag")
    value = data.draw(BAD_VALUES[command, flag], label="value")
    with tempfile.TemporaryDirectory() as tmp:
        args = [command, *command_input(command, tiny_trace), f"{flag}={value}",
                "--out", tmp + "/out"]
        result = stderr_runner().invoke(main, args)
    if result.exit_code:
        assert_one_error_line(result, args)


# Flags click converts itself: every value flag not typed as text.
CLICK_TYPED = sorted((command, opt.opts[0]) for command in main.commands
                     for opt in main.commands[command].params
                     if not opt.is_flag and not isinstance(opt.type, click.types.StringParamType))


def test_twenty_seven_flags_are_click_typed():
    # 26 typed int or float, and calibrate --error, a Choice.
    assert len(CLICK_TYPED) == 27 and ("calibrate", "--error") in CLICK_TYPED


@pytest.mark.parametrize("command, flag", CLICK_TYPED)
def test_a_value_click_cannot_convert_is_a_domain_error(tiny_trace, tmp_path, command, flag):
    value = "foo" if flag == "--error" else "x"
    out = tmp_path / "out"
    args = [command, *command_input(command, tiny_trace), flag, value, "--out", str(out)]
    result = stderr_runner().invoke(main, args)
    assert_one_error_line(result, args, f"error:domain: Invalid value for '{flag}'")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["analyze"],
    ["analyze", "--trace", "t.satr", "--bogus", "1"],
    ["footprint", "--tau", "x"],
], ids=["missing-trace", "unknown-option", "unknown-typed-option"])
def test_usage_errors_stay_clicks(tmp_path, args):
    result = stderr_runner().invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("Usage: ") and "error:" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_help_exits_zero():
    result = CliRunner().invoke(main, ["analyze", "--help"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("Usage: ") and "--tau" in result.output


NO_MA_SCRIPT = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    print("eager")
    sys.exit(0)
from click.testing import CliRunner
from satool.cli import main
trace, out = sys.argv[1:]
# Low taus drop blocks, so calibrate measures pre-activation changes.
for command, *extra in (["analyze"], ["calibrate", "--taus", "0.3,0.6,0.9"], ["run"], ["perturb"]):
    result = CliRunner().invoke(main, [command, "--trace", trace, "--out", out + "/" + command, *extra])
    assert result.exit_code == 0, (command, result.output)
print("numpy.ma" in sys.modules)
"""


def test_commands_do_not_import_numpy_ma(tiny_trace, tmp_path):
    # numpy 2 imports numpy.ma on the first np.unique call, 13-21 ms per
    # process; no command needs it.
    env = {**os.environ, "PYTHONPATH": str(Path(satool.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", NO_MA_SCRIPT, str(tiny_trace), str(tmp_path)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    if result.stdout.strip() == "eager":
        pytest.skip("this numpy imports numpy.ma together with numpy")
    assert result.stdout.strip() == "False"


class TestFootprint:
    def test_reference_numbers(self, runner):
        result = runner.invoke(main, ["footprint"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["mean_pooled_bytes"] == 368_640
        assert payload["full_token_bytes"] == 12_079_595_520

    def test_branches_flag_halves(self, runner):
        result = runner.invoke(main, ["footprint", "--branches", "1"])
        payload = json.loads(result.output)
        assert payload["mean_pooled_bytes"] == 368_640 // 2
        assert payload["full_token_bytes"] == 12_079_595_520 // 2

    def test_out_dir_gets_manifest(self, tmp_path, runner):
        out = tmp_path / "fp"
        result = runner.invoke(main, ["footprint", "--out", str(out)])
        assert result.exit_code == 0
        assert (out / "footprint.json").exists()
        assert (out / "manifest.json").exists()
