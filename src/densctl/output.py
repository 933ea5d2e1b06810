"""Run artifacts: deterministic CSV/JSON writers and the run manifest.

CSV files carry a header row and 17-significant-digit floats, so they
round-trip losslessly and are byte-identical across reruns with the
same inputs. Timestamps, which vary between identical reruns, live
only in manifest.json.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__ as VERSION


CSV_BLOCK_VALUES = 4096


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def format_float(v: float) -> str:
    return f"{float(v):.17g}"


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns under a header, every value as format_float would.

    Rows are formatted a block of about CSV_BLOCK_VALUES values at a
    time, each row by one %-format over Python floats, so neither a
    numpy scalar per value nor the whole file as one string is built.
    """
    if len(header) != len(columns):
        raise ValueError("header and column count differ")
    cols = [np.asarray(c).reshape(-1) for c in columns]
    n = cols[0].shape[0]
    if any(c.shape[0] != n for c in cols):
        raise ValueError("columns differ in length")
    table = np.column_stack(cols).astype(float, copy=False)
    row = ",".join(["%.17g"] * len(cols))
    step = max(1, CSV_BLOCK_VALUES // len(cols))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, n, step):
            fh.write("".join(row % tuple(r) + "\n"
                             for r in table[a:a + step].tolist()))


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_jsonable)
        fh.write("\n")


@dataclass
class RunManifest:
    command: str
    config_hash: str
    seed: int | None = None
    version: str = VERSION
    started: str = ""
    finished: str = ""
    outputs: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "version": self.version,
            "started": self.started,
            "finished": self.finished,
            "outputs": sorted(self.outputs),
        }


class RunWriter:
    """Collects a run's artifacts in one directory and logs the manifest.

    The directory name is <command>-<first 12 hex of a hash over the
    config hash and `options`>, where `options` holds every resolved
    option that changes the artifacts, so identical runs land in the
    same place and reruns overwrite their own previous artifacts.
    """

    def __init__(self, base_dir: str, command: str, config_hash: str,
                 options: dict, seed: int | None = None):
        key = json.dumps({"config": config_hash, **options}, sort_keys=True)
        self.dir = os.path.join(
            base_dir, f"{command}-{sha256_bytes(key.encode())[:12]}")
        os.makedirs(self.dir, exist_ok=True)
        self.manifest = RunManifest(
            command=command, config_hash=config_hash, seed=seed,
            started=datetime.now(timezone.utc).isoformat())

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def csv(self, name: str, header: list[str], columns) -> str:
        p = self.path(name)
        write_csv(p, header, columns)
        self.manifest.outputs.append(name)
        return p

    def json(self, name: str, obj) -> str:
        p = self.path(name)
        write_json(p, obj)
        self.manifest.outputs.append(name)
        return p

    def close(self) -> str:
        self.manifest.finished = datetime.now(timezone.utc).isoformat()
        p = self.path("manifest.json")
        write_json(p, self.manifest.as_dict())
        return self.dir
