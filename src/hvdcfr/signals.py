"""Uniformly sampled multichannel time series and their CSV form."""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SignalRecord:
    """Named multichannel record sampled every ``t_s`` seconds.

    ``samples`` has shape (n_samples, n_channels); row k is time k*t_s.
    """

    t_s: float
    channels: tuple[str, ...]
    samples: np.ndarray

    def __post_init__(self):
        if self.t_s <= 0:
            raise ValueError(f"sample time must be positive, got {self.t_s}")
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

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) * self.t_s

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.t_s

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
        Path(path).write_text(self.to_csv_text())

    def to_csv_text(self) -> str:
        return csv_text(("time_s", *self.channels),
                        np.column_stack([self.times, self.samples]).tolist())

    @staticmethod
    def from_csv(path: str | Path) -> "SignalRecord":
        return SignalRecord.from_csv_text(Path(path).read_text())

    @staticmethod
    def from_csv_text(text: str) -> "SignalRecord":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) < 3:
            raise ValueError("CSV record needs a header and at least two samples")
        header = lines[0].split(",")
        if header[0] != "time_s":
            raise ValueError(f"first CSV column must be time_s, got {header[0]!r}")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        bad = np.argwhere(~np.isfinite(data))
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"CSV record has a non-finite value in data row {row + 1}, column {col + 1}")
        times = data[:, 0]
        steps = np.diff(times)
        t_s = float(steps[0])
        if not np.allclose(steps, t_s, rtol=1e-9, atol=1e-12):
            raise ValueError("CSV record is not uniformly sampled")
        return SignalRecord(t_s=t_s, channels=tuple(header[1:]), samples=data[:, 1:])


def csv_text(header, rows) -> str:
    """One header line, then one line per row: the one CSV rule.

    A ``str`` cell is written as-is, every other cell as its ``repr`` (so a
    float reads back exactly).
    """
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join([v if isinstance(v, str) else repr(v) for v in row]) + "\n")
    return buf.getvalue()


def sample_count(duration: float, t_s: float) -> int:
    """Samples at t = 0, t_s, ... spanning ``duration``, both ends included."""
    return int(round(duration / t_s)) + 1


def zeros_record(t_s: float, channels: tuple[str, ...], duration: float) -> SignalRecord:
    return SignalRecord(t_s, channels, np.zeros((sample_count(duration, t_s), len(channels))))
