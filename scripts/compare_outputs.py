"""Diff every command's outputs, manifests included, between a revision and the working tree.

    python scripts/compare_outputs.py BASE_REV

``BASE_REV``'s ``src/`` is exported with ``git archive`` into a temporary
directory.  For that tree and for the working tree's ``src/``, each
perfbench workload's trace at seeds 3 and 11 goes through
``python -m satool.cli``: ``gen-trace``, ``analyze``, ``calibrate`` with
the fft and the mse error, ``run`` on both tables and again at
``--tau 0.9 --gate-lo 0 --gate-hi 1`` without one, and ``perturb`` at the
default and at ``--alpha 0 --steps 1,3``.  The flags are the workloads'
in ``perfbench/run.py`` (``WORKLOADS`` and ``command_args``).

Every file that differs, or exists in one tree only, is printed, and the
exit status is 1 if there is any.  A command that fails stops the
comparison with status 2.  Nothing is written inside the repository, and
no bytecode either.  Run against ``HEAD``, it checks that two checkouts
give the same bytes.
"""

from __future__ import annotations

import filecmp
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
    return [gen, analyze, calibrate, mse, run, run_mse, run_open, perturb, perturb_steps]


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
        print(path)
    print(f"{len(differ)} file(s) differ from {argv[0]}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
