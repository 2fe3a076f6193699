"""Run traces: fixed-schema numeric tables plus a JSON-able summary.

A Trace is what the run driver returns. Columns are solver specific
(documented on the entry points); rows are one record per iteration or
time sample. CSV output is byte-deterministic for a given trace: floats
are rendered with %.17g so values round-trip exactly and two runs of the
same seeded configuration produce identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .parallel import forked, spare_cores

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
        # Parts of >= 4,096 rows, one per core this process may use: children
        # format parts 1.. whole, in 256-row blocks (a pipe holds 64 KiB); this
        # process writes part 0, then each block sent, and formats the rest.
        row = ",".join(["%.17g"] * len(self.columns)) + "\n"
        n_parts = max(1, min(1 + spare_cores(), self.n_rows // 4096))
        cuts = [self.n_rows * i // n_parts for i in range(n_parts + 1)]
        with forked(n_parts, lambda i: list(self._blocks(row, *cuts[i:i + 2]))) as parts:
            with open(path, "wb") as fh:  # after the forks: no child holds its buffer
                fh.write((",".join(self.columns) + "\n").encode())
                for lo, hi, blocks in zip(cuts, cuts[1:], [(), *parts]):
                    for block in blocks:
                        fh.write(block)
                        lo += 256
                    fh.writelines(self._blocks(row, lo, hi))

    def _blocks(self, row: str, lo: int, hi: int):
        # encoded blocks of rows bound the memory held by Python floats
        for start in range(lo, hi, 256):
            block = self.data[start:min(start + 256, hi)]
            yield ((row * len(block)) % tuple(block.ravel().tolist())).encode()

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
