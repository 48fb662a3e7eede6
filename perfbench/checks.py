"""Output checks for one instance of a workload; each raises CheckFailed."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

# CSV floats are written at 9 significant digits.
CSV_REL_TOL = 1e-8


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_digest(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file in an output directory, by name."""
    return {p.name: sha256_file(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def check_manifest(cwd: Path, out_dir: Path, digest: dict[str, str],
                   input_digest=sha256_file) -> dict:
    """The manifest lists exactly the files written, and its hashes match them and the inputs."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    outputs = manifest["outputs"]
    require(set(digest) == set(outputs) | {"manifest.json"},
            f"{out_dir.name}: files {sorted(digest)} differ from manifest outputs {sorted(outputs)}")
    for name, expected in outputs.items():
        require(digest[name] == expected, f"{out_dir.name}/{name}: hash differs from manifest")
    for path, expected in manifest["inputs"].items():
        require(input_digest(cwd / path) == expected, f"{out_dir.name}: input {path} hash differs")
    return manifest


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_analyze(out_dir: Path, shape: dict) -> None:
    summary = json.loads((out_dir / "summary.json").read_text())
    pairs = shape["layers"] * shape["heads"] * (shape["steps"] - 1)
    require(summary["pairs"] == pairs, f"analyze: {summary['pairs']} pairs, expected {pairs}")
    require(len(_csv_rows(out_dir / "drift_iou.csv")) == pairs, "analyze: drift_iou.csv row count")


def check_calibrate(out_dir: Path, shape: dict) -> dict:
    """The table meets its budget and is no worse than any feasible shared baseline."""
    table = json.loads((out_dir / "calibration.json").read_text())
    require(len(table["heads"]) == shape["layers"] * shape["heads"], "calibrate: head count")
    require(table["achieved_sparsity"] >= table["budget"],
            f"calibrate: sparsity {table['achieved_sparsity']} below budget {table['budget']}")
    feasible = [row for row in _csv_rows(out_dir / "baselines.csv") if row["feasible"] == "true"]
    require(bool(feasible), "calibrate: no feasible shared baseline")
    for row in feasible:
        baseline = float(row["objective"])
        require(table["objective"] <= baseline + CSV_REL_TOL * abs(baseline),
                f"calibrate: objective {table['objective']} worse than shared tau {row['tau']}")
    return table


def check_run(out_dir: Path, shape: dict) -> dict:
    """Every (step, layer, head) decision is either a mask prediction or a reuse."""
    summary = json.loads((out_dir / "summary.json").read_text())
    rows = _csv_rows(out_dir / "run.csv")
    total = shape["steps"] * shape["layers"] * shape["heads"]
    reused = sum(row["decision"] == "reuse" for row in rows)
    require(len(rows) == total, f"run: {len(rows)} decisions, expected {total}")
    require(summary["mask_predictions"] + reused == total,
            f"run: {summary['mask_predictions']} predictions + {reused} reuses != {total}")
    require(abs(summary["reuse_rate"] - reused / total) < 1e-12, "run: reuse_rate disagrees with run.csv")
    return summary


def check_perturb(out_dir: Path, seeds: int) -> None:
    rows = _csv_rows(out_dir / "perturb.csv")
    require(len(rows) == 4 * seeds, f"perturb: {len(rows)} rows, expected {4 * seeds}")
