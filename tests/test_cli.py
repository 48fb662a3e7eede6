import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from satool.cli import main
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
        from satool.blocksparse import mask_from_hex

        for head in summary["heads"]:
            mask = mask_from_hex(head["anchor_mask"]["bits"], head["anchor_mask"]["m"])
            assert mask.count >= 1

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
], ids=["budget-nan", "budget-neg-inf", "calibrate-seed-negative",
        "seeds-negative", "alpha-nan", "alpha-inf", "alpha-huge", "seeds-empty", "steps-empty"])
def test_invalid_value_fails_cleanly(trace_dir, tmp_path, runner, command, flags):
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--trace", str(trace_dir / "trace.satr"),
                                  "--out", str(out), *flags])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("error:domain:"), result.output
    assert not out.exists()


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
NUMERIC_FLAGS = {
    "calibrate": {"--budget": FLOAT_VALUES, "--seed": INT_VALUES, "--intervals": INT_VALUES,
                  "--weights": FLOAT_LISTS},
    "perturb": {"--alpha": FLOAT_VALUES, "--seeds": INT_LISTS},
    "run": {"--delta": FLOAT_VALUES, "--tau": FLOAT_VALUES, "--gate-lo": FLOAT_VALUES,
            "--gate-hi": FLOAT_VALUES},
    "analyze": {"--tau": FLOAT_VALUES, "--token-p": FLOAT_VALUES},
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_numeric_flags_exit_cleanly(tiny_trace, data):
    """Any numeric flag value ends in exit 0 or in one error:<code>: line, never a traceback."""
    command = data.draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    args = [command, "--trace", str(tiny_trace)]
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
