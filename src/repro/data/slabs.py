"""Out-of-core population slabs: bounded-memory build, mmap-backed read.

A *slab store* is one directory holding a :class:`PopulationFrame`'s
columns as raw little-endian binary files plus a versioned
``manifest.json``, keyed by the owning dataset's
:meth:`~repro.data.validation.DatasetBundle.fingerprint`.  It exists so
populations far larger than RAM can be encoded once and then memory-
mapped (:meth:`PopulationFrame.from_slabs`) — kernels touch only the
pages they read, shards stay zero-copy views, and sharded fits hand
workers a *reference* (store path + row range) instead of a pickled
frame.

Build contract (bounded memory).  :func:`build_slab_store` consumes a
stream of :class:`SlabChunk` batches and never materialises more than
one chunk + one hash bucket + one customer shard at a time:

1. **spill** — each chunk's rows are appended to ``n_buckets`` hash
   buckets on disk (``customer_id % n_buckets``), windows resolved
   against the grid at ingest;
2. **scatter** — each bucket is re-read once and split into per-shard
   spill files (shards are contiguous ranges of the sorted customer
   ids), preserving stream order per customer;
3. **assemble** — each shard is sorted, deduplicated and CSR-encoded
   with the exact kernels :meth:`PopulationFrame.from_log` uses
   (:func:`~repro.data.population.csr_from_triples`), then appended to
   the global column files with rebased offsets.

Spill and scatter route rows with one stable sort per chunk or bucket
(:func:`_partition`), and at most ``2 * n_buckets`` spill files are open
at once, however many shards the population needs.

Durability.  Column files stream through
:class:`repro.atomicio.AtomicBinaryWriter` and the manifest is written
*last* via :func:`~repro.atomicio.atomic_write_json`, so a store is
valid iff its manifest is present and every column file has exactly the
manifested byte size — anything else raises
:class:`~repro.errors.SlabStoreError` instead of being silently mapped.
Spill files live in a build-private subdirectory and are removed on
exit either way.
"""

from __future__ import annotations

import json
import os
import shutil
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

import numpy as np

from repro.atomicio import AtomicBinaryWriter, atomic_write_json
from repro.data.basket import Basket
from repro.data.population import PopulationFrame, _sort_unique, csr_from_triples
from repro.errors import SlabStoreError
from repro.obs import span
from repro.obs.metrics import (
    SLAB_STORE_HITS,
    SLAB_STORE_MISSES,
    SPAN_SLAB_BUILD,
    SPAN_SLAB_OPEN,
    get_metrics,
)

if TYPE_CHECKING:  # type-only: repro.core imports the data layer at runtime
    from repro.core.windowing import WindowGrid

__all__ = [
    "SLAB_STORE_SCHEMA",
    "SLAB_STORE_VERSION",
    "SlabChunk",
    "SlabStore",
    "build_slab_store",
    "chunks_from_baskets",
    "ensure_slab_store",
    "open_slab_store",
]

#: Manifest schema marker + format version.  Bump the version whenever
#: the column layout changes; stores from any other version refuse to open.
SLAB_STORE_SCHEMA = "repro-slab-store"
SLAB_STORE_VERSION = 1

_MANIFEST_NAME = "manifest.json"

#: Column name -> numpy dtype string, in canonical manifest order.
_COLUMN_DTYPES: dict[str, str] = {
    "customer_ids": "<i8",
    "basket_offsets": "<i8",
    "basket_days": "<i8",
    "basket_monetary": "<f8",
    "pair_offsets": "<i8",
    "pair_items": "<i8",
    "triple_offsets": "<i8",
    "triple_window": "<i8",
    "item_vocab": "<i8",
}

#: Structured spill-row layouts for the two row kinds.
_BASKET_DTYPE = np.dtype(
    [("customer", "<i8"), ("day", "<i8"), ("monetary", "<f8")]
)
_ITEM_DTYPE = np.dtype([("customer", "<i8"), ("window", "<i8"), ("item", "<i8")])


@dataclass(frozen=True)
class SlabChunk:
    """One bounded batch of raw purchase rows, columnar.

    The basket columns hold one row per receipt (``customer_id, day,
    monetary``); the item columns hold one row per *(receipt, item)*
    incidence (``customer_id, day, item_id``).  Rows may arrive in any
    order across chunks, but one customer's same-day receipts must keep
    their history order within the stream — the builder's stable sort
    preserves it, matching :meth:`TransactionLog.to_columnar`.
    """

    basket_customer: np.ndarray
    basket_day: np.ndarray
    basket_monetary: np.ndarray
    item_customer: np.ndarray
    item_day: np.ndarray
    item_id: np.ndarray

    def __post_init__(self) -> None:
        if not (
            len(self.basket_customer)
            == len(self.basket_day)
            == len(self.basket_monetary)
        ):
            raise SlabStoreError(
                "slab chunk basket columns disagree on length: "
                f"{len(self.basket_customer)}/{len(self.basket_day)}/"
                f"{len(self.basket_monetary)}"
            )
        if not (
            len(self.item_customer) == len(self.item_day) == len(self.item_id)
        ):
            raise SlabStoreError(
                "slab chunk item columns disagree on length: "
                f"{len(self.item_customer)}/{len(self.item_day)}/"
                f"{len(self.item_id)}"
            )


def chunks_from_baskets(
    baskets: Iterable[Basket], *, chunk_baskets: int = 8192
) -> Iterator[SlabChunk]:
    """Adapt a basket stream (e.g. a :class:`TransactionLog`) to chunks.

    Yields one :class:`SlabChunk` per ``chunk_baskets`` receipts, so the
    builder's working set stays bounded regardless of stream length.
    """
    stream = iter(baskets)
    while batch := list(islice(stream, max(chunk_baskets, 1))):
        customer = np.array([b.customer_id for b in batch], dtype=np.int64)
        day = np.array([b.day for b in batch], dtype=np.int64)
        sizes = [len(b.items) for b in batch]
        yield SlabChunk(
            basket_customer=customer,
            basket_day=day,
            basket_monetary=np.array([b.monetary for b in batch], dtype=np.float64),
            item_customer=np.repeat(customer, sizes),
            item_day=np.repeat(day, sizes),
            item_id=np.array([i for b in batch for i in b.items], dtype=np.int64),
        )


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------
class _SpillFiles:
    """Append-only spill files inside the build-private directory.

    These are *transient* intermediates — a crash leaves them inside
    ``.build-<pid>`` where the next build ignores them; only the final
    columns + manifest carry the durability contract.
    """

    def __init__(self, directory: Path, max_open: int) -> None:
        self.directory = directory
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handles: dict[str, IO[bytes]] = {}
        self._max_open = max_open

    def append(self, name: str, rows: np.ndarray) -> None:
        handle = self._handles.get(name)
        if handle is None:
            if len(self._handles) >= self._max_open:
                # Close the oldest handle: the descriptor count stays
                # bounded however many shard files the scatter fills.
                self._handles.pop(next(iter(self._handles))).close()
            path = self.directory / name
            handle = self._handles[name] = open(path, "ab")  # lint: allow[IO001] transient spill file, rebuilt from scratch on any resume
        handle.write(rows.tobytes())

    def take(self, name: str, dtype: np.dtype) -> np.ndarray:
        """Read one spill file whole and delete it."""
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()
        path = self.directory / name
        if not path.exists():
            return np.empty(0, dtype=dtype)
        rows = np.fromfile(path, dtype=dtype)
        path.unlink()
        return rows

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        shutil.rmtree(self.directory, ignore_errors=True)


def _partition(
    rows: np.ndarray, target: np.ndarray, n_parts: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(part, rows)`` for each non-empty part in ``target``.

    One stable argsort groups the rows, so each part keeps its stream
    order (and each customer its receipt order).  Narrow targets take
    numpy's radix sort, and records gather as opaque bytes: both several
    times faster than int64 keys and a field-by-field gather.
    """
    counts = np.bincount(target, minlength=n_parts)
    ends = np.cumsum(counts)
    narrow = target.astype(np.min_scalar_type(n_parts - 1))
    order = np.argsort(narrow, kind="stable")
    rows = rows.view(np.dtype((np.void, rows.itemsize))).take(order).view(rows.dtype)
    for part in np.flatnonzero(counts):
        yield int(part), rows[ends[part] - counts[part] : ends[part]]


def _shard_bounds_for(n_customers: int, customers_per_shard: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` row ranges of at most ``customers_per_shard``."""
    if customers_per_shard < 1:
        raise SlabStoreError(
            f"customers_per_shard must be >= 1, got {customers_per_shard}"
        )
    return [
        (lo, min(lo + customers_per_shard, n_customers))
        for lo in range(0, n_customers, customers_per_shard)
    ]


def build_slab_store(
    chunks: Iterable[SlabChunk],
    grid: WindowGrid,
    directory: str | Path,
    *,
    fingerprint: str,
    customers_per_shard: int = 8192,
    n_buckets: int = 64,
) -> SlabStore:
    """Stream a population into an on-disk slab store in bounded memory.

    ``fingerprint`` keys the store to its source dataset (see
    :func:`ensure_slab_store`); ``customers_per_shard`` sets both the
    assembly working set and the shard granularity recorded in the
    manifest (which out-of-core fits iterate over); ``n_buckets`` bounds
    the scatter working set to roughly ``total_rows / n_buckets``.

    Returns the opened (validated, mmap-ready) :class:`SlabStore`.
    """
    directory = Path(directory)
    with span(
        SPAN_SLAB_BUILD,
        directory=str(directory),
        fingerprint=fingerprint,
        customers_per_shard=customers_per_shard,
    ):
        spill = _SpillFiles(directory / f".build-{os.getpid()}", max_open=2 * n_buckets)
        try:
            customer_ids = _spill_pass(chunks, grid, spill, n_buckets)
            shard_bounds = _shard_bounds_for(
                len(customer_ids), customers_per_shard
            )
            _scatter_pass(spill, customer_ids, shard_bounds, n_buckets)
            manifest = _assemble_pass(
                spill, directory, grid, fingerprint, customer_ids, shard_bounds
            )
        finally:
            spill.close()
        atomic_write_json(directory / _MANIFEST_NAME, manifest, indent=2)
    return open_slab_store(directory)


def _spill_pass(
    chunks: Iterable[SlabChunk],
    grid: WindowGrid,
    spill: _SpillFiles,
    n_buckets: int,
) -> np.ndarray:
    """Pass 1: hash-bucket every row on disk; return sorted customer ids.

    Windows are resolved here (same rule as
    :meth:`PopulationFrame.from_log`: receipts outside the grid keep
    their basket rows but contribute no presence triples).

    Each chunk's sorted distinct customer ids merge into ``seen`` once
    they outgrow it: about 16 bytes per customer in any stream order.
    """
    boundaries = np.asarray(grid.boundaries, dtype=np.int64)
    seen = np.empty(0, dtype=np.int64)
    fresh: list[np.ndarray] = []
    fresh_rows = 0
    for chunk in chunks:
        for customers in (chunk.basket_customer, chunk.item_customer):
            fresh.append(_sort_unique(np.array(customers, dtype=np.int64)))
            fresh_rows += len(fresh[-1])
        if fresh_rows > len(seen):
            seen = _sort_unique(np.concatenate([seen, *fresh]))
            fresh.clear()
            fresh_rows = 0
        baskets = np.empty(len(chunk.basket_customer), dtype=_BASKET_DTYPE)
        baskets["customer"] = chunk.basket_customer
        baskets["day"] = chunk.basket_day
        baskets["monetary"] = chunk.basket_monetary
        days = np.asarray(chunk.item_day, dtype=np.int64)
        valid = (days >= boundaries[0]) & (days < boundaries[-1])
        items = np.empty(int(valid.sum()), dtype=_ITEM_DTYPE)
        items["customer"] = np.asarray(chunk.item_customer)[valid]
        items["window"] = np.searchsorted(boundaries, days[valid], side="right") - 1
        items["item"] = np.asarray(chunk.item_id)[valid]
        for kind, rows in (("basket", baskets), ("item", items)):
            for bucket, part in _partition(rows, rows["customer"] % n_buckets, n_buckets):
                spill.append(f"bucket-{kind}-{bucket}", part)
    return _sort_unique(np.concatenate([seen, *fresh]))


def _scatter_pass(
    spill: _SpillFiles,
    customer_ids: np.ndarray,
    shard_bounds: list[tuple[int, int]],
    n_buckets: int,
) -> None:
    """Pass 2: split each hash bucket into per-shard spill files.

    Hash buckets hold *all* of a customer's rows in stream order, so the
    per-shard files preserve each customer's relative order even though
    buckets are drained one at a time.
    """
    if not shard_bounds:
        return
    shard_first = customer_ids[[lo for lo, __ in shard_bounds]]
    for kind, dtype in (("basket", _BASKET_DTYPE), ("item", _ITEM_DTYPE)):
        for bucket in range(n_buckets):
            name = f"bucket-{kind}-{bucket}"
            rows = spill.take(name, dtype)
            target = np.searchsorted(shard_first, rows["customer"], side="right") - 1
            for shard, part in _partition(rows, target, len(shard_bounds)):
                spill.append(f"shard-{kind}-{shard}", part)


def _assemble_pass(
    spill: _SpillFiles,
    directory: Path,
    grid: WindowGrid,
    fingerprint: str,
    customer_ids: np.ndarray,
    shard_bounds: list[tuple[int, int]],
) -> dict[str, Any]:
    """Pass 3: CSR-encode each shard and append to the global columns.

    Per shard this is exactly the :meth:`PopulationFrame.from_log`
    pipeline — stable sort by (customer, day), then
    :func:`csr_from_triples` — so the concatenated columns are
    bit-identical to a single in-RAM encode of the same stream.
    """
    writers = {
        name: AtomicBinaryWriter(directory / f"{name}.bin")
        for name in _COLUMN_DTYPES
    }
    try:
        rows_written = {name: 0 for name in _COLUMN_DTYPES}

        def put(name: str, values: np.ndarray) -> None:
            writers[name].write(
                np.ascontiguousarray(values, dtype=_COLUMN_DTYPES[name]).tobytes()
            )
            rows_written[name] += len(values)

        for name in ("basket_offsets", "pair_offsets", "triple_offsets"):
            put(name, np.zeros(1, dtype=np.int64))  # CSR leading 0
        vocab = [np.empty(0, dtype=np.int64)]  # per-shard distinct items
        basket_base = pair_base = triple_base = 0
        for index, (lo, hi) in enumerate(shard_bounds):
            shard_ids = customer_ids[lo:hi]
            baskets = spill.take(f"shard-basket-{index}", _BASKET_DTYPE)
            rows = np.searchsorted(shard_ids, baskets["customer"])
            days = baskets["day"]
            low = int(days.min(initial=0))
            span = int(days.max(initial=0)) - low + 1
            if (hi - lo) * span < 2**63:  # (row, day) packs into one key
                order = np.argsort(rows * span + (days - low), kind="stable")
            else:
                order = np.lexsort((days, rows))
            items = spill.take(f"shard-item-{index}", _ITEM_DTYPE)
            pair_offsets, pair_items, triple_offsets, triple_window = csr_from_triples(
                np.searchsorted(shard_ids, items["customer"]),
                items["item"],
                items["window"],
                hi - lo,
                grid.n_windows,
            )
            vocab.append(_sort_unique(pair_items.copy()))

            put("customer_ids", shard_ids)
            put(
                "basket_offsets",
                np.cumsum(np.bincount(rows, minlength=hi - lo)) + basket_base,
            )
            put("pair_offsets", pair_offsets[1:] + pair_base)
            put("triple_offsets", triple_offsets[1:] + triple_base)
            put("basket_days", days[order])
            put("basket_monetary", baskets["monetary"][order])
            put("pair_items", pair_items)
            put("triple_window", triple_window)
            basket_base += len(baskets)
            pair_base += len(pair_items)
            triple_base += len(triple_window)
        put("item_vocab", _sort_unique(np.concatenate(vocab)))
        for writer in writers.values():
            writer.commit()
    except BaseException:
        for writer in writers.values():
            writer.abort()
        raise
    return {
        "schema": SLAB_STORE_SCHEMA,
        "version": SLAB_STORE_VERSION,
        "fingerprint": fingerprint,
        "grid": {
            "boundaries": [int(b) for b in grid.boundaries],
            "months_per_window": grid.months_per_window,
        },
        "n_customers": int(len(customer_ids)),
        "shards": [[int(lo), int(hi)] for lo, hi in shard_bounds],
        "columns": {
            name: {
                "dtype": _COLUMN_DTYPES[name],
                "rows": rows_written[name],
                "nbytes": rows_written[name]
                * np.dtype(_COLUMN_DTYPES[name]).itemsize,
            }
            for name in _COLUMN_DTYPES
        },
    }


# ----------------------------------------------------------------------
# Open / read
# ----------------------------------------------------------------------
@dataclass
class SlabStore:
    """A validated on-disk slab store, ready to memory-map.

    Columns map lazily (``np.memmap`` read-only) and are cached per
    store instance, so repeated :meth:`column` calls share one mapping
    and shards cut from a :meth:`frame` stay zero-copy views of it.
    """

    directory: Path
    manifest: dict[str, Any]
    _columns: dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def fingerprint(self) -> str:
        return str(self.manifest["fingerprint"])

    @property
    def n_customers(self) -> int:
        return int(self.manifest["n_customers"])

    def shard_bounds(self) -> list[tuple[int, int]]:
        """Contiguous customer-row ranges the store was assembled in.

        Out-of-core fits iterate these so the working set stays one
        shard; they are a layout detail, not a semantic partition —
        any ``[lo, hi)`` range is a valid :meth:`PopulationFrame.shard`.
        """
        return [(int(lo), int(hi)) for lo, hi in self.manifest["shards"]]

    def grid(self) -> WindowGrid:
        """Reconstruct the window grid the triples were encoded on."""
        from repro.core.windowing import WindowGrid

        spec = self.manifest["grid"]
        months = spec["months_per_window"]
        return WindowGrid(
            boundaries=tuple(int(b) for b in spec["boundaries"]),
            months_per_window=None if months is None else int(months),
        )

    def column(self, name: str) -> np.ndarray:
        """Memory-map one column read-only (cached per store)."""
        cached = self._columns.get(name)
        if cached is not None:
            return cached
        spec = self.manifest["columns"].get(name)
        if spec is None:
            raise SlabStoreError(
                f"slab store at {self.directory} has no column {name!r}"
            )
        dtype = np.dtype(spec["dtype"])
        rows = int(spec["rows"])
        if rows == 0:
            # np.memmap refuses zero-length mappings; an empty array is
            # indistinguishable to readers.
            column: np.ndarray = np.empty(0, dtype=dtype)
        else:
            column = np.memmap(
                self.directory / f"{name}.bin",
                dtype=dtype,
                mode="r",
                shape=(rows,),
            )
        self._columns[name] = column
        return column

    def frame(self) -> PopulationFrame:
        """The mmap-backed :class:`PopulationFrame` over this store."""
        return PopulationFrame.from_slabs(self)


def open_slab_store(directory: str | Path) -> SlabStore:
    """Validate and open a slab store directory.

    Raises
    ------
    SlabStoreError
        If the manifest is missing/corrupt, the schema or version does
        not match, or any column file is missing or has the wrong size
        (a torn or stale store).
    """
    directory = Path(directory)
    with span(SPAN_SLAB_OPEN, directory=str(directory)):
        manifest_path = directory / _MANIFEST_NAME
        try:
            text = manifest_path.read_text()
        except OSError as error:
            raise SlabStoreError(
                f"no slab store at {directory}: cannot read manifest "
                f"({error})"
            ) from error
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as error:
            raise SlabStoreError(
                f"slab store manifest at {manifest_path} is not valid "
                f"JSON: {error}"
            ) from error
        if not isinstance(manifest, dict) or manifest.get("schema") != SLAB_STORE_SCHEMA:
            found = manifest.get("schema") if isinstance(manifest, dict) else None
            raise SlabStoreError(
                f"{manifest_path} is not a slab-store manifest "
                f"(schema={found!r}, expected {SLAB_STORE_SCHEMA!r})"
            )
        if manifest.get("version") != SLAB_STORE_VERSION:
            raise SlabStoreError(
                f"slab store at {directory} has version "
                f"{manifest.get('version')!r}; this build reads version "
                f"{SLAB_STORE_VERSION} — rebuild the store"
            )
        columns = manifest.get("columns")
        if not isinstance(columns, dict) or set(columns) != set(_COLUMN_DTYPES):
            raise SlabStoreError(
                f"slab store at {directory} manifests columns "
                f"{sorted(columns) if isinstance(columns, dict) else columns!r}; "
                f"expected {sorted(_COLUMN_DTYPES)}"
            )
        for name, spec in columns.items():
            path = directory / f"{name}.bin"
            expected = int(spec["nbytes"])
            try:
                actual = path.stat().st_size
            except OSError as error:
                raise SlabStoreError(
                    f"slab store at {directory} is torn: column file "
                    f"{path.name} is missing"
                ) from error
            if actual != expected:
                raise SlabStoreError(
                    f"slab store at {directory} is torn: column file "
                    f"{path.name} holds {actual} bytes, manifest says "
                    f"{expected}"
                )
    return SlabStore(directory=directory, manifest=manifest)


def ensure_slab_store(
    root: str | Path,
    baskets: Iterable[Basket],
    grid: WindowGrid,
    fingerprint: str,
    *,
    customers_per_shard: int = 8192,
    n_buckets: int = 64,
) -> SlabStore:
    """Open the fingerprint-keyed store under ``root``, building on miss.

    The store lives at ``root/<fingerprint>``; a valid store whose
    manifested fingerprint matches counts as a cache hit
    (``slab.store_hits``) and is opened without touching ``baskets``.
    Anything else — absent, torn, stale fingerprint, old version — is a
    miss (``slab.store_misses``): the directory is discarded and rebuilt
    from the stream.
    """
    directory = Path(root) / fingerprint
    try:
        store = open_slab_store(directory)
        if store.fingerprint == fingerprint:
            get_metrics().counter(SLAB_STORE_HITS).inc()
            return store
    except SlabStoreError:
        pass
    get_metrics().counter(SLAB_STORE_MISSES).inc()
    if directory.exists():
        shutil.rmtree(directory)
    return build_slab_store(
        chunks_from_baskets(baskets),
        grid,
        directory,
        fingerprint=fingerprint,
        customers_per_shard=customers_per_shard,
        n_buckets=n_buckets,
    )
