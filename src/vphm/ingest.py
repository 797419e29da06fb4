"""Flight-log ingestion: CSV parsing, cleaning, windowing, fleet splits.

The CSV contract is a header row ``time_s,current_a,voltage_v``, UTF-8,
`.` decimal separator, missing values as empty cells or NaN. Cleaning
removes duplicated timestamps and implausible sensor readings, imputes
missing values with the per-flight column mean, normalizes timestamps to
start at zero and rejects gaps in the sampling; it is idempotent.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import InputError


class MissingColumn(InputError):
    """A CSV column is absent from the header."""


class EmptyFile(InputError):
    """The CSV has no data rows."""


class BadTimestamp(InputError):
    """A time cell is not a finite number."""


class AllRecordsInvalid(InputError):
    """Nothing survived cleaning."""


class IrregularSampling(InputError):
    """The cleaned timestamps have a gap wider than the sample period."""


class TooShort(InputError):
    """Fewer samples than one window."""


class UnknownFlight(InputError, KeyError):
    """A requested flight id is not in the fleet."""


COLUMNS = {"time": "time_s", "current": "current_a", "voltage": "voltage_v"}
CURRENT_BOUNDS = (-5.0, 200.0)
VOLTAGE_BOUNDS = (0.0, 30.0)
MAX_STEP_RATIO = 1.5


@dataclass(frozen=True)
class RawRecord:
    time: float       # seconds since flight start
    current: float    # amperes; NaN when missing
    voltage: float    # volts; NaN when missing


@dataclass
class FlightLog:
    """Cleaned, time-ordered series for one flight."""

    flight_id: str
    times: np.ndarray
    current: np.ndarray
    voltage: np.ndarray
    sample_period: float

    def __len__(self):
        return self.times.size


@dataclass
class WindowedSample:
    """Model-ready sample: a (window_size x 2) input block with columns
    (current, physics voltage) and the measured-minus-physics residual at
    the window's last index as target."""

    inputs: np.ndarray
    target: float


def _cell_to_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        return math.nan


def parse_flight_csv(path) -> list[RawRecord]:
    """Read one flight CSV into raw records.

    Unparseable current/voltage cells become NaN (imputed later by
    ``clean``). Timestamps must parse to finite numbers; a malformed time
    cell is a malformed file and raises BadTimestamp.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFile(f"{path}: no header row")
        for column in COLUMNS.values():
            if column not in reader.fieldnames:
                raise MissingColumn(f"{path}: no column {column!r}")
        records = []
        for row_no, row in enumerate(reader, start=2):
            t = _cell_to_float(row[COLUMNS["time"]] or "")
            if not math.isfinite(t):
                raise BadTimestamp(f"{path}: row {row_no}: bad timestamp "
                                   f"{row[COLUMNS['time']]!r}")
            records.append(RawRecord(
                time=t,
                current=_cell_to_float(row[COLUMNS["current"]] or ""),
                voltage=_cell_to_float(row[COLUMNS["voltage"]] or "")))
    if not records:
        raise EmptyFile(f"{path}: no data rows")
    return records


def clean(records: Sequence[RawRecord], flight_id: str = "flight") -> FlightLog:
    """Deduplicate, bound-check, impute and time-normalize raw records.

    Records whose current or voltage lies outside the plausibility bounds
    are dropped; missing values are imputed with the column mean over the
    surviving records. Timestamps are shifted to start at zero; the median
    step is the sample period. Raises AllRecordsInvalid when nothing usable
    remains and IrregularSampling at a step over MAX_STEP_RATIO periods.
    """
    if not records:
        raise ValueError("clean() needs at least one record")

    ordered = sorted(records, key=lambda r: r.time)
    deduped = [ordered[0]]
    for rec in ordered[1:]:
        if rec.time != deduped[-1].time:
            deduped.append(rec)

    def plausible(rec: RawRecord) -> bool:
        if math.isfinite(rec.current) and not \
                CURRENT_BOUNDS[0] <= rec.current <= CURRENT_BOUNDS[1]:
            return False
        if math.isfinite(rec.voltage) and not \
                VOLTAGE_BOUNDS[0] <= rec.voltage <= VOLTAGE_BOUNDS[1]:
            return False
        return True

    kept = [r for r in deduped if plausible(r)]
    if not kept:
        raise AllRecordsInvalid("no records inside plausibility bounds")

    times = np.array([r.time for r in kept])
    current = np.array([r.current for r in kept])
    voltage = np.array([r.voltage for r in kept])

    for name, col in (("current", current), ("voltage", voltage)):
        present = np.isfinite(col)
        if not present.any():
            raise AllRecordsInvalid(f"column {name} has no data")
        col[~present] = col[present].mean()

    times = times - times[0]
    steps = np.diff(times)
    period = float(np.median(steps)) if times.size > 1 else 1.0
    gaps = np.nonzero(steps > MAX_STEP_RATIO * period)[0]
    if gaps.size:
        k = gaps[0]
        raise IrregularSampling(f"{flight_id}: {steps[k]:g} s gap after t = "
                                f"{times[k]:g} s (sample period {period:g} s)")
    return FlightLog(flight_id=flight_id, times=times, current=current,
                     voltage=voltage, sample_period=period)


def make_windows(log: FlightLog, physics_voltage, window_size: int = 10,
                 stride: int = 1) -> list[WindowedSample]:
    """Slice a flight into fixed-length input windows with residual targets.

    Yields floor((len - window_size)/stride) + 1 contiguous windows; the
    target of each window is measured minus physics voltage at the window's
    last index.
    """
    if window_size < 1 or stride < 1:
        raise ValueError("window_size and stride must be >= 1")
    physics_voltage = np.asarray(physics_voltage, dtype=np.float64)
    if physics_voltage.shape != (len(log),) :
        raise ValueError("physics_voltage must align 1:1 with log samples")
    if not (np.isfinite(log.current).all() and np.isfinite(log.voltage).all()):
        raise ValueError("log contains missing values; clean() it first")
    n = len(log)
    if n < window_size:
        raise TooShort(f"{n} samples < window size {window_size}")

    windows = []
    for start in range(0, n - window_size + 1, stride):
        end = start + window_size
        inputs = np.column_stack((log.current[start:end],
                                  physics_voltage[start:end]))
        target = float(log.voltage[end - 1] - physics_voltage[end - 1])
        windows.append(WindowedSample(inputs=inputs, target=target))
    return windows


def split_by_flight(logs: Iterable[FlightLog], train_ids) -> tuple[list, list]:
    """Partition a fleet into train/test by whole flights."""
    logs = list(logs)
    available = {log.flight_id for log in logs}
    train_ids = set(train_ids)
    unknown = train_ids - available
    if unknown:
        raise UnknownFlight(f"flight ids not in fleet: {sorted(unknown)}")
    train = [log for log in logs if log.flight_id in train_ids]
    test = [log for log in logs if log.flight_id not in train_ids]
    return train, test
