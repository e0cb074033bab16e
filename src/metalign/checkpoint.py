"""Checkpoint container: parameter arrays plus a JSON meta block, stored as
an npz archive. Float64 values round-trip bitwise. Run outputs are written
through write_atomic, so an interrupted write leaves no partial file."""

from __future__ import annotations

import json
import os
from typing import IO, Callable

import numpy as np

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def write_atomic(path: str, write: Callable[[IO], None], binary: bool = False) -> None:
    """Write path through write(fh) on a temp file in the same directory, then
    move it into place with os.replace.

    A write that raises removes the temp file and leaves path as it was, so a
    crashed run never leaves a half-written file behind under the final name.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(path: str, params: dict[str, np.ndarray], meta: dict) -> None:
    header = dict(meta)
    header["version"] = FORMAT_VERSION
    header["param_shapes"] = {pid: list(arr.shape) for pid, arr in params.items()}
    # an open file, so np.savez appends no ".npz" to the temp name
    write_atomic(path, lambda fh: np.savez(fh, __meta__=np.array(json.dumps(header)),
                                           **params), binary=True)


def _read_entries(path: str) -> dict[str, np.ndarray]:
    """Every entry of the archive at path. A failure to open or read the
    archive or an entry is a CheckpointError naming path and the entry."""
    entry = None
    try:
        with np.load(path, allow_pickle=False) as archive:
            entries = {}
            for entry in archive.files:
                entries[entry] = archive[entry]
            return entries
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    except Exception as e:
        # damaged bytes fail in zipfile, zlib, or numpy's header tokenizer and
        # array reader, with many unrelated types (BadZipFile, EOFError,
        # NotImplementedError, TokenError, ...), and each means the file is damaged
        where = "" if entry is None else f" entry {entry!r}"
        raise CheckpointError(f"corrupt checkpoint {path}{where}: "
                              f"{type(e).__name__}: {e}") from None


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    params = _read_entries(path)
    if "__meta__" not in params:
        raise CheckpointError(f"corrupt checkpoint {path}: missing meta block")
    try:
        meta = json.loads(str(params.pop("__meta__")))
    except ValueError as e:
        raise CheckpointError(f"corrupt checkpoint {path}: meta block: {e}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"corrupt checkpoint {path}: meta block is not an object")
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {meta.get('version')}: {path}")
    shapes = meta.get("param_shapes")
    if not isinstance(shapes, dict):
        raise CheckpointError(f"corrupt checkpoint {path}: meta block lacks param_shapes")
    for pid, shape in shapes.items():
        if pid not in params or list(params[pid].shape) != shape:
            raise CheckpointError(f"corrupt checkpoint {path}: bad entry {pid!r}")
    return params, meta
