"""Deterministic output plumbing: atomic writes, stable CSV/JSON formatting, manifests."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import stat
from pathlib import Path
from typing import BinaryIO, Iterator

from . import __version__


def format_cell(value) -> str:
    """CSV cell formatting: ints verbatim, floats at 9 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        if value == 0.0:
            return "0"
        return f"{value:.9g}"
    return str(value)


@contextlib.contextmanager
def atomic_open(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """Write through a temp file beside ``path``, renamed onto it on success.

    If anything fails before the rename, the temp file is removed and the
    error re-raised, so a failed write leaves neither output nor temp file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def atomic_write_bytes(path: Path, data: bytes) -> None:
    with atomic_open(path) as fh:
        fh.write(data)


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def regular_file_fd(path: str | os.PathLike, error: type[Exception]) -> int:
    """A blocking read-only descriptor of ``path``, which must name a regular file.

    The open itself does not block, so a FIFO raises ``error`` at once
    instead of waiting for a writer.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise error(f"{path}: not a regular file")
        os.set_blocking(fd, True)
    except BaseException:
        os.close(fd)
        raise
    return fd


def sha256_path(path: Path) -> str:
    digest = hashlib.sha256()
    # 64 KiB reads: hashing a trace adds no more than that to a command's peak.
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, params: dict,
                   inputs: list[Path], outputs: list[Path]) -> Path:
    """One manifest per output directory; hashes pin inputs and produced files."""
    manifest = {
        "command": command,
        "config": params,
        "inputs": {str(p): sha256_path(Path(p)) for p in inputs},
        "outputs": {Path(p).name: sha256_path(Path(p)) for p in outputs},
        "version": __version__,
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path
