"""Run traces: fixed-schema numeric tables plus a JSON-able summary.

A Trace is what the run driver returns. Columns are solver specific
(documented on the entry points); rows are one record per iteration or
time sample. CSV output is byte-deterministic for a given trace: floats
are rendered with %.17g so values round-trip exactly and two runs of the
same seeded configuration produce identical files.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Trace"]


@dataclass
class Trace:
    kind: str                      # "agm" | "pgm" | "ode"
    columns: tuple[str, ...]
    data: np.ndarray               # shape (n_rows, len(columns))
    summary: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise ValueError(
                f"data shape {self.data.shape} does not match {len(self.columns)} columns"
            )

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None
        return self.data[:, j]

    def write_csv(self, path) -> None:
        # Parts of >= 4,096 rows, one per usable core: forked children send
        # parts 1.. through pipes, copied in order after the parent's part 0.
        # Python >= 3.12 warns on fork in a threaded process; it is safe: the
        # child calls no BLAS, imports nothing and ends in os._exit.
        row = ",".join(["%.17g"] * len(self.columns)) + "\n"
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        n_parts = max(1, min(cores, self.n_rows // 4096))
        cuts = [self.n_rows * i // n_parts for i in range(n_parts + 1)]
        pids, parts = [], []  # parts: the read ends of the pipes, in row order
        try:
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                r, w = os.pipe()
                parts.append(open(r))
                try:
                    if (pid := os.fork()) == 0:
                        self._send_part(parts, w, row, lo, hi)
                finally:
                    os.close(w)
                pids.append(pid)
            with open(path, "w") as fh:  # after the forks: no child holds its buffer
                fh.write(",".join(self.columns) + "\n")
                fh.writelines(self._blocks(row, 0, cuts[1]))
                for part in parts:
                    shutil.copyfileobj(part, fh)
        finally:
            for part in parts:  # a child blocked on a closed pipe fails and exits
                part.close()
            failed = any([os.waitpid(pid, 0)[1] for pid in pids])
        if failed:
            raise OSError(f"a child process formatting part of {path} failed")

    def _send_part(self, parts, w: int, row: str, lo: int, hi: int) -> None:
        """In a forked child: write rows lo:hi to pipe end w, then exit."""
        try:
            for part in parts:  # so the parent closing its ends stops a blocked write
                part.close()
            with open(w, "w") as fh:  # format all first: a pipe holds 64 KiB
                fh.write("".join(self._blocks(row, lo, hi)))
        except BaseException:
            os._exit(1)
        os._exit(0)

    def _blocks(self, row: str, lo: int, hi: int):
        # blocks of rows bound the memory held by Python floats
        for start in range(lo, hi, 256):
            block = self.data[start:min(start + 256, hi)].tolist()
            yield "".join(row % tuple(r) for r in block)

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(_clean(self.summary), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _clean(v):
    """Make a summary strictly JSON-safe (NaN becomes null)."""
    if isinstance(v, dict):
        return {k: _clean(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_clean(u) for u in v]
    if isinstance(v, np.ndarray):
        return [_clean(u) for u in v.tolist()]
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not np.isfinite(v):
        return None
    return v
