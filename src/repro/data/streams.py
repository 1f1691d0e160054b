"""Day batching of a basket stream.

The serving layer (:mod:`repro.serve`) and the recorded-stream reader
(:mod:`repro.synth.stream`) ingest a day-ordered basket stream one
calendar day at a time: :class:`DayBatch` is that unit and
:func:`iter_day_batches` groups a stream into it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.data.basket import Basket
from repro.errors import DataError

__all__ = ["DayBatch", "iter_day_batches"]


@dataclass(frozen=True)
class DayBatch:
    """All baskets of one calendar day, in stream order.

    The unit of ingestion for the serving layer
    (:mod:`repro.serve`): a day is atomic — a checkpoint batch never
    splits one, so the resume cursor can count whole days.
    """

    day: int
    baskets: tuple[Basket, ...]

    @property
    def n_baskets(self) -> int:
        return len(self.baskets)


def iter_day_batches(baskets: Iterable[Basket]) -> Iterator[DayBatch]:
    """Group a day-ordered basket stream into :class:`DayBatch` chunks.

    Peak memory is one day's baskets.  Raises
    :class:`~repro.errors.DataError` the moment a basket's day
    regresses — the grouping must not silently reorder what the
    streaming monitor would have rejected.
    """
    current_day: int | None = None
    acc: list[Basket] = []
    for basket in baskets:
        if current_day is None:
            current_day = basket.day
        elif basket.day != current_day:
            if basket.day < current_day:
                raise DataError(
                    f"customer {basket.customer_id}: basket day "
                    f"{basket.day} regresses behind day {current_day}; "
                    f"day batches require a day-ordered stream"
                )
            yield DayBatch(day=current_day, baskets=tuple(acc))
            acc = []
            current_day = basket.day
        acc.append(basket)
    if current_day is not None:
        yield DayBatch(day=current_day, baskets=tuple(acc))
