"""Uniformly sampled multichannel time series and their CSV form."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# rows a record's CSV form is written and read in: one block's Python
# floats and text are all a write or read holds beside the sample array
CSV_BLOCK = 256


@dataclass(frozen=True)
class SignalRecord:
    """Named multichannel record sampled every ``t_s`` seconds.

    ``samples`` has shape (n_samples, n_channels); row k is time k*t_s.
    """

    t_s: float
    channels: tuple[str, ...]
    samples: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.t_s) and self.t_s > 0):
            raise ValueError(f"sample time must be positive and finite, got {self.t_s}")
        object.__setattr__(self, "channels", tuple(self.channels))
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if samples.shape[1] != len(self.channels):
            raise ValueError(
                f"{samples.shape[1]} sample columns for {len(self.channels)} channel names"
            )
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def channel(self, name: str) -> np.ndarray:
        try:
            idx = self.channels.index(name)
        except ValueError:
            raise KeyError(f"no channel {name!r}; have {self.channels}") from None
        return self.samples[:, idx]

    def select(self, names: list[str] | tuple[str, ...]) -> "SignalRecord":
        idx = [self.channels.index(n) for n in names]
        return SignalRecord(self.t_s, tuple(names), self.samples[:, idx])

    def to_csv(self, path: str | Path) -> None:
        """The header, then ``CSV_BLOCK`` rows at a time, each block written
        before the next is built; row k's time is k * t_s."""
        with open(path, "w") as out:
            out.write(csv_text(("time_s", *self.channels), ()))
            for k in range(0, self.n_samples, CSV_BLOCK):
                block = self.samples[k:k + CSV_BLOCK]
                times = np.arange(k, k + len(block)) * self.t_s
                out.write(_csv_rows(np.column_stack([times, block]).tolist()))

    @staticmethod
    def from_csv(path: str | Path) -> "SignalRecord":
        # utf-8-sig drops the byte-order mark spreadsheet exports may start with
        with open(path, encoding="utf-8-sig") as lines:
            return _read_csv(lines)


def _read_csv(lines) -> SignalRecord:
    """A record from CSV text lines: a ``time_s`` header, then at least two
    rows, parsed ``CSV_BLOCK`` non-blank lines at a time."""
    rows = filter(str.strip, itertools.chain.from_iterable(map(str.splitlines, lines)))
    head = list(itertools.islice(rows, 3))
    if len(head) < 3:
        raise ValueError("CSV record needs a header and at least two samples")
    header = head[0].lstrip().split(",")
    if header[0] != "time_s":
        raise ValueError(f"first CSV column must be time_s, got {header[0]!r}")
    data = _csv_values(itertools.chain(head[1:], rows), head[1].count(",") + 1)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"CSV record has a non-finite value in data row {row + 1}, column {col + 1}")
    times = data[:, 0]
    if times[0] != 0.0:
        raise ValueError(f"CSV record time column must start at 0, got {float(times[0])!r}")
    steps = np.diff(times)
    t_s = float(steps[0])
    if not np.allclose(steps, t_s, rtol=1e-9, atol=1e-12):
        raise ValueError("CSV record is not uniformly sampled")
    return SignalRecord(t_s=t_s, channels=tuple(header[1:]), samples=data[:, 1:])


def _csv_values(rows, width: int) -> np.ndarray:
    """``float`` of every cell of ``rows``, ``width`` cells each, one block at a time."""
    blocks = []
    while block := list(itertools.islice(rows, CSV_BLOCK)):
        values = np.fromiter(map(float, itertools.chain.from_iterable(
            ln.split(",") for ln in block)), float)
        for i, ln in enumerate(block):
            if ln.count(",") + 1 != width:
                raise ValueError(f"CSV data row {CSV_BLOCK * len(blocks) + i + 1} has "
                                 f"{ln.count(',') + 1} values, the first has {width}")
        blocks.append(values.reshape(len(block), width))
    return np.concatenate(blocks)


def csv_text(header, rows) -> str:
    """One header line, then one line per row: the one CSV rule.

    A ``str`` cell is written as-is, every other cell as its ``repr`` (so a
    float reads back exactly).
    """
    return ",".join(header) + "\n" + _csv_rows(rows)


def _csv_rows(rows) -> str:
    return "".join([",".join([v if isinstance(v, str) else repr(v) for v in row]) + "\n"
                    for row in rows])


def sample_count(duration: float, t_s: float) -> int:
    """Samples at t = 0, t_s, ... spanning ``duration``, both ends included."""
    return int(round(duration / t_s)) + 1


def zeros_record(t_s: float, channels: tuple[str, ...], duration: float) -> SignalRecord:
    return SignalRecord(t_s, channels, np.zeros((sample_count(duration, t_s), len(channels))))
