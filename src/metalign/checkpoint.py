"""Checkpoint container: parameter arrays plus a JSON meta block, stored as
an npz archive. Float64 values round-trip bitwise."""

from __future__ import annotations

import json

import numpy as np

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str, params: dict[str, np.ndarray], meta: dict) -> None:
    header = dict(meta)
    header["version"] = FORMAT_VERSION
    header["param_shapes"] = {pid: list(arr.shape) for pid, arr in params.items()}
    np.savez(path, __meta__=np.array(json.dumps(header)), **params)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    try:
        archive = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    except (ValueError, OSError) as e:
        raise CheckpointError(f"corrupt checkpoint {path}: {e}") from None
    if "__meta__" not in archive:
        raise CheckpointError(f"corrupt checkpoint {path}: missing meta block")
    meta = json.loads(str(archive["__meta__"]))
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {meta.get('version')}")
    params = {pid: archive[pid] for pid in archive.files if pid != "__meta__"}
    for pid, shape in meta["param_shapes"].items():
        if pid not in params or list(params[pid].shape) != shape:
            raise CheckpointError(f"corrupt checkpoint {path}: bad entry {pid!r}")
    return params, meta
