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
        row = ",".join(["%.17g"] * len(self.columns)) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            # blocks of rows bound the memory held by Python floats
            for start in range(0, self.n_rows, 256):
                block = self.data[start:start + 256].tolist()
                fh.write("".join(row % tuple(r) for r in block))

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
