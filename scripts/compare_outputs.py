"""Diff every command's outputs, manifests included, between a revision and the working tree.

    python scripts/compare_outputs.py BASE_REV

``BASE_REV``'s ``src/`` is exported with ``git archive`` into a temporary
directory.  For that tree and for the working tree's ``src/``, each
perfbench workload's trace at seeds 3 and 11 goes through
``python -m satool.cli``: ``gen-trace``, ``analyze``, ``calibrate`` with
the fft and the mse error, ``run`` on both tables and again at
``--tau 0.9 --gate-lo 0 --gate-hi 1`` without one, ``perturb`` at the
default and at ``--alpha 0 --steps 1,3``, and ``footprint --out`` at the
trace's ``--layers/--heads/--tokens/--head-dim``.  The flags are the
workloads' in ``perfbench/run.py`` (``WORKLOADS`` and ``command_args``).

Every file that differs, or exists in one tree only, is printed, and the
exit status is 1 if there is any.  Each differing file gets a note: for a
manifest, which of its fields differ (input hashes only, say); for a CSV or
JSON file, the largest relative difference over values that parse as
numbers in both trees, and for ``calibration.json`` whether every head's
calibrated tau matches.  A command that fails stops the
comparison with status 2.  Nothing is written inside the repository, and
no bytecode either.  Run against ``HEAD``, it checks that two checkouts
give the same bytes.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import COMMANDS, WORKLOADS, command_args  # noqa: E402

TRACE_SEEDS = (3, 11)


def replaced(args: list[str], option: str, value: str | None) -> list[str]:
    """``args`` with ``option`` set to ``value``, or without the option when it is None."""
    at = args.index(option)
    return args[:at] + ([option, value] if value is not None else []) + args[at + 2:]


def command_lines(workload, trace_seed: int) -> list[list[str]]:
    """Every command line of one trace, in order; each writes its own output directory."""
    gen, analyze, calibrate, run, perturb = (
        command_args(workload, command, trace_seed) for command in COMMANDS)
    mse = replaced(calibrate, "--out", "calibrate-mse") + ["--error", "mse"]
    run_mse = replaced(replaced(run, "--out", "run-mse"),
                       "--table", "calibrate-mse/calibration.json")
    run_open = replaced(replaced(run, "--out", "run-open"), "--table", None) + [
        "--tau", "0.9", "--gate-lo", "0", "--gate-hi", "1"]
    perturb_steps = replaced(perturb, "--out", "perturb-steps") + [
        "--alpha", "0", "--steps", "1,3"]
    footprint = ["footprint", "--out", "footprint"]
    for option in ("--layers", "--heads", "--tokens", "--head-dim"):
        footprint += [option, gen[gen.index(option) + 1]]
    return [gen, analyze, calibrate, mse, run, run_mse, run_open, perturb, perturb_steps,
            footprint]


def run_tree(src: Path, out: Path) -> None:
    """Run every command line of every workload and seed on the sources in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for name, workload in WORKLOADS.items():
        for trace_seed in TRACE_SEEDS:
            work = out / name / f"seed{trace_seed}"
            work.mkdir(parents=True)
            for args in command_lines(workload, trace_seed):
                done = subprocess.run([sys.executable, "-m", "satool.cli", *args], cwd=work,
                                      env=env, capture_output=True, text=True)
                if done.returncode:
                    sys.stderr.write(f"{src}: {name} seed {trace_seed}: {' '.join(args)} "
                                     f"failed ({done.returncode})\n{done.stderr}")
                    sys.exit(2)


def differences(base: Path, work: Path) -> list[str]:
    """Relative paths of files that differ or exist under one root only."""
    files = {root: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for root in (base, work)}
    return sorted(str(path) for path in files[base] | files[work]
                  if path not in files[base] or path not in files[work]
                  or not filecmp.cmp(base / path, work / path, shallow=False))


def leaves(value, path=()):
    """(path, scalar) pairs of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, path + (index,))
    else:
        yield path, value


def number(value) -> float | None:
    """``value`` as a float if it is a number or a string that parses as one; None otherwise."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def numeric_note(old: list, new: list) -> str:
    """The largest relative difference over paired (path, value) leaves, or why there is none."""
    if [path for path, _ in old] != [path for path, _ in new]:
        return "layout differs"
    largest, other = 0.0, 0
    for (_, a), (_, b) in zip(old, new):
        x, y = number(a), number(b)
        if x is None or y is None:
            other += a != b
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            scale = max(abs(x), abs(y))
            largest = max(largest, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    note = f"largest relative difference {largest:.3g}"
    return note + (f", {other} non-numeric value(s) differ" if other else "")


def describe(base: Path, work: Path) -> str:
    """A one-line note on how two versions of an output file differ."""
    if not base.exists() or not work.exists():
        return "only in " + ("the base tree" if base.exists() else "the working tree")
    if base.suffix == ".csv":
        rows = [list(csv.reader(path.read_text().splitlines())) for path in (base, work)]
        return numeric_note(*(list(leaves(r)) for r in rows))
    if base.suffix != ".json":
        return "contents differ"
    old, new = (json.loads(path.read_text()) for path in (base, work))
    if base.name == "manifest.json":
        names = {"inputs": "input hashes", "outputs": "output hashes"}
        fields = sorted(names.get(key, key) for key in old.keys() | new.keys()
                        if old.get(key) != new.get(key))
        return ("differs only in " if len(fields) == 1 else "differs in ") + " and ".join(fields)
    note = numeric_note(list(leaves(old)), list(leaves(new)))
    if base.name == "calibration.json":
        taus = [[(h["layer"], h["head"], h["tau"]) for h in payload["heads"]]
                for payload in (old, new)]
        note += "; per-head taus " + ("match" if taus[0] == taus[1] else "differ")
    return note


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="satool-compare-") as tmp:
        tmp = Path(tmp)
        archive = tmp / "base.tar"
        subprocess.run(["git", "-C", str(ROOT), "archive", "--output", str(archive),
                        argv[0], "src"], check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tmp / "base", filter="data")
        run_tree(tmp / "base" / "src", tmp / "base-out")
        run_tree(ROOT / "src", tmp / "work-out")
        differ = differences(tmp / "base-out", tmp / "work-out")
        for path in differ:
            print(f"{path}: {describe(tmp / 'base-out' / path, tmp / 'work-out' / path)}")
    print(f"{len(differ)} file(s) differ from {argv[0]}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
