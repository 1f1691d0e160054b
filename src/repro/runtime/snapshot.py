"""The one snapshot codec: named numpy columns plus a JSON header column.

A snapshot of a :class:`~repro.core.streaming.StabilityMonitor` is its
columnar state as it stands (see :mod:`repro.core.streaming`), as a
:data:`Columns` mapping: ``customer_id`` / ``n_windows`` /
``last_stability`` per customer; the presence CSR ``offsets`` +
``item`` / ``count`` / ``first_seen`` / ``missing`` in (first-seen
window, item) order, the order the window close sums in; the alarm log
``alarm_customer`` / ``alarm_window`` / ``alarm_stability`` in emission
order; the open window's ``current_id`` / ``current_offsets`` /
``current_item``; and a ``header`` column of UTF-8 JSON holding the
schema, version, window grid, scoring configuration and stream
position.  A restored monitor emits bit-identical
:class:`~repro.core.streaming.WindowCloseReport` objects for the rest
of the stream, and ``explain_alarm`` keeps working.

These columns are the serve layer's only score state:
:func:`write_columns` stores them as one uncompressed ``.npz`` through
:class:`~repro.atomicio.AtomicBinaryWriter`.  :func:`read_columns` and
:func:`check_columns` turn truncation, a CRC mismatch, a foreign schema,
version drift and a missing, mistyped or misshapen column into
:class:`~repro.errors.SnapshotError`.  Only the paper's exponential
significance is serialisable: a custom rule has no stable wire format.
"""

from __future__ import annotations

import io
import itertools
import json
import zipfile
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.atomicio import AtomicBinaryWriter
from repro.errors import ConfigError, SnapshotError

if TYPE_CHECKING:
    from repro.core.streaming import StabilityMonitor

__all__ = [
    "Columns",
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_VERSION",
    "pack_header",
    "check_columns",
    "write_columns",
    "read_columns",
    "snapshot_monitor",
    "restore_monitor",
]

#: Named 1-d arrays; the in-memory and on-disk shape of every snapshot.
Columns = dict[str, np.ndarray]

SNAPSHOT_SCHEMA = "repro.stability-monitor"
SNAPSHOT_VERSION = 3

#: Each state column: the monitor attribute holding it and its dtype.
_STATE: dict[str, tuple[str, type[np.generic]]] = {
    "customer_id": ("_ids", np.int64),
    "n_windows": ("_n_windows", np.int32),
    "last_stability": ("_last_stability", np.float64),
    "offsets": ("_offsets", np.int64),
    "item": ("_items", np.int32),
    "count": ("_counts", np.int32),
    "first_seen": ("_first_seen", np.int32),
    "missing": ("_missing", np.float64),
    "alarm_customer": ("_alarm_customer", np.int64),
    "alarm_window": ("_alarm_window", np.int32),
    "alarm_stability": ("_alarm_stability", np.float64),
}
_ALARM_LOG = ("alarm_customer", "alarm_window", "alarm_stability")
_MONITOR_COLUMNS: dict[str, type[np.generic]] = {
    **{name: dtype for name, (_, dtype) in _STATE.items()},
    **dict.fromkeys(("current_id", "current_offsets", "current_item"), np.int64),
}

#: What a damaged archive raises when read (a flipped zip flag bit reads
#: as an unsupported compression method or as encryption, hence the last two).
_DECODE_ERRORS = (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile,
                  NotImplementedError, RuntimeError)


def pack_header(header: Mapping[str, object]) -> np.ndarray:
    """A JSON header as a uint8 column."""
    text = json.dumps(dict(header), sort_keys=True)
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()


def check_columns(
    columns: Columns,
    schema: str,
    version: int,
    dtypes: Mapping[str, type[np.generic]],
    csr: Iterable[tuple[str, tuple[str, ...], tuple[str, ...]]] = (),
) -> dict[str, Any]:
    """Validate a column set; returns its decoded ``header``.

    The header must name ``schema`` and ``version`` (drift names both
    versions); every column in ``dtypes`` must be present, 1-d and of
    its dtype; and for each ``(offsets, rows, values)`` CSR, the ``rows``
    columns must have one entry per row and the ``values`` columns one
    per entry that ``offsets`` (non-decreasing, from 0) spans.

    Raises
    ------
    SnapshotError
        Naming the first check that fails.
    """
    for name, dtype in {"header": np.uint8, **dtypes}.items():
        column = columns.get(name)
        if not isinstance(column, np.ndarray):
            raise SnapshotError(f"snapshot missing column {name!r}")
        if column.dtype != dtype or column.ndim != 1:
            raise SnapshotError(
                f"snapshot column {name!r} has dtype {column.dtype} and "
                f"shape {column.shape}, expected 1-d {np.dtype(dtype)}"
            )
    try:
        header = json.loads(columns["header"].tobytes().decode("utf-8"))
    except ValueError as exc:
        raise SnapshotError(f"snapshot header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != schema:
        raise SnapshotError(f"snapshot header does not name schema {schema!r}")
    if header.get("version") != version:
        raise SnapshotError(
            f"snapshot version drift: found version {header.get('version')!r}, "
            f"expected version {version}"
        )
    for offsets, rows, values in csr:
        bounds = columns[offsets]
        if (
            {len(columns[name]) for name in rows} != {len(bounds) - 1}
            or {len(columns[name]) for name in values} != {int(bounds[-1])}
            or bounds[0] != 0
            or np.any(np.diff(bounds) < 0)
        ):
            raise SnapshotError(
                f"snapshot columns {rows + values} do not fit the CSR {offsets!r}"
            )
    return header


def write_columns(path: str | Path, columns: Columns) -> Path:
    """Write columns as one uncompressed ``.npz``, atomically."""
    buffer = io.BytesIO()
    np.savez(buffer, **columns)
    with AtomicBinaryWriter(path) as writer:
        writer.write(buffer.getvalue())
    return Path(path)


def read_columns(path: str | Path) -> Columns:
    """Read every column of a :func:`write_columns` file.

    Raises
    ------
    SnapshotError
        If the file cannot be opened, or is truncated, corrupt (CRC
        mismatch) or not a column archive at all.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot: {exc}") from exc
    with handle:
        try:
            archive = np.load(handle, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not a column archive")
            with archive:
                return {name: archive[name] for name in archive.files}
        except _DECODE_ERRORS as exc:
            raise SnapshotError(
                f"{path}: corrupt or truncated snapshot: {exc}"
            ) from exc


def snapshot_monitor(monitor: StabilityMonitor) -> Columns:
    """The monitor's complete state as :data:`Columns`.

    The state arrays are shared, not copied: the monitor replaces them
    at every window close instead of mutating them.

    Raises
    ------
    SnapshotError
        If the monitor uses a non-exponential significance rule.
    """
    from repro.core.significance import ExponentialSignificance

    if not isinstance(monitor.significance, ExponentialSignificance):
        raise SnapshotError(
            "only the paper's ExponentialSignificance is snapshot-"
            f"serialisable, got {type(monitor.significance).__name__}"
        )
    current_ids = sorted(monitor._current)
    item_lists = [sorted(monitor._current[cid]) for cid in current_ids]
    sizes = [len(items) for items in item_lists]
    header = {
        "schema": SNAPSHOT_SCHEMA,
        "version": SNAPSHOT_VERSION,
        "grid": {
            "boundaries": list(monitor.grid.boundaries),
            "months_per_window": monitor.grid.months_per_window,
        },
        "beta": monitor.beta,
        "alpha": monitor.significance.alpha,
        "counting": monitor.counting,
        "first_alarm_window": monitor.first_alarm_window,
        "current_window": monitor._current_window,
        "last_day_seen": monitor._last_day_seen,
        "finished": monitor._finished,
    }
    return {
        "header": pack_header(header),
        **{name: getattr(monitor, attr) for name, (attr, _) in _STATE.items()},
        "current_id": np.asarray(current_ids, dtype=np.int64),
        "current_offsets": np.cumsum([0] + sizes, dtype=np.int64),
        "current_item": np.fromiter(
            itertools.chain.from_iterable(item_lists),
            dtype=np.int64,
            count=sum(sizes),
        ),
    }


def restore_monitor(columns: Columns) -> StabilityMonitor:
    """Rebuild a monitor from a :func:`snapshot_monitor` result.

    Raises
    ------
    SnapshotError
        On any schema, version, header field, column, dtype or shape
        mismatch.
    """
    from repro.core.significance import ExponentialSignificance
    from repro.core.streaming import StabilityMonitor
    from repro.core.windowing import WindowGrid

    header = check_columns(
        columns,
        SNAPSHOT_SCHEMA,
        SNAPSHOT_VERSION,
        _MONITOR_COLUMNS,
        csr=[
            (
                "offsets",
                ("customer_id", "n_windows", "last_stability"),
                ("item", "count", "first_seen", "missing"),
            ),
            ("current_offsets", ("current_id",), ("current_item",)),
        ],
    )
    for name in ("customer_id", "current_id"):
        if np.any(np.diff(columns[name]) <= 0):
            raise SnapshotError(f"snapshot column {name!r} is not strictly ascending")
    if len({len(columns[name]) for name in _ALARM_LOG}) != 1:
        raise SnapshotError(f"snapshot columns {_ALARM_LOG} differ in length")
    try:
        months = header["grid"]["months_per_window"]
        monitor = StabilityMonitor(
            WindowGrid(
                boundaries=tuple(int(b) for b in header["grid"]["boundaries"]),
                months_per_window=None if months is None else int(months),
            ),
            beta=float(header["beta"]),
            significance=ExponentialSignificance(float(header["alpha"])),
            counting=str(header["counting"]),
            first_alarm_window=int(header["first_alarm_window"]),
        )
        monitor._current_window = int(header["current_window"])
        monitor._last_day_seen = int(header["last_day_seen"])
        monitor._finished = bool(header["finished"])
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise SnapshotError(f"snapshot header is malformed: {exc!r}") from exc
    for name, (attr, _) in _STATE.items():
        # A copy: the monitor must not share arrays its caller may mutate.
        setattr(monitor, attr, columns[name].copy())
    bounds = columns["current_offsets"].tolist()
    items = columns["current_item"].tolist()
    monitor._current = {
        cid: set(items[lo:hi])
        for cid, lo, hi in zip(
            columns["current_id"].tolist(), bounds[:-1], bounds[1:], strict=True
        )
    }
    return monitor
