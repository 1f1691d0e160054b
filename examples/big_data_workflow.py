"""Out-of-core workflow: slab storage + shard-at-a-time scoring.

The paper's dataset is 6M customers; a deployment cannot hold it as Python
objects.  This example runs the bounded-memory path end to end:

1. profile the incoming export with the data-quality report;
2. encode it once into a fingerprint-keyed on-disk slab store
   (`ensure_slab_store`; a rerun on the same data reopens the store);
3. memory-map the store (`PopulationFrame.from_slabs`) and score one
   store shard in isolation with the batch model (the unit of
   parallelism a cluster would fan out over);
4. fit the whole mmap-backed population, which the batch engine runs
   one store shard at a time.

    python examples/big_data_workflow.py
"""

from __future__ import annotations

import tempfile

from repro import ExperimentConfig, StabilityModel, paper_scenario
from repro.data.population import PopulationFrame
from repro.data.quality import profile_log, render_quality_report
from repro.data.slabs import ensure_slab_store

CUSTOMERS_PER_SHARD = 15


def flagged_at_final_window(model: StabilityModel) -> int:
    """Customers whose churn score exceeds 0.5 at the last window."""
    scores = model.churn_scores(model.n_windows - 1)
    return sum(1 for score in scores.values() if score > 0.5)


def main() -> None:
    dataset = paper_scenario(n_loyal=30, n_churners=30, seed=23)
    config = ExperimentConfig(window_months=2, alpha=2.0, backend="batch")

    # --- 1. quality gate ---------------------------------------------------
    print("incoming export quality:")
    print(render_quality_report(profile_log(dataset.log, dataset.calendar)))

    with tempfile.TemporaryDirectory(prefix="repro-bigdata-") as root:
        # --- 2. encode once into a slab store -------------------------------
        store = ensure_slab_store(
            root,
            dataset.log,
            config.grid(dataset.calendar),
            dataset.bundle.fingerprint(),
            customers_per_shard=CUSTOMERS_PER_SHARD,
        )
        print(
            f"\nencoded {store.n_customers} customers into "
            f"{len(store.shard_bounds())} slab shards under {store.directory}"
        )

        # --- 3. one store shard, scored in isolation (the parallel unit) ----
        frame = PopulationFrame.from_slabs(store)
        shard = frame.shard(*store.shard_bounds()[0])
        model = StabilityModel.from_config(dataset.calendar, config).fit(shard)
        print(
            f"shard 0: {shard.n_customers} customers scored in isolation, "
            f"{flagged_at_final_window(model)} above churn score 0.5 at the "
            f"final window"
        )

        # --- 4. the whole population, straight off the mapping --------------
        model = StabilityModel.from_config(dataset.calendar, config).fit(frame)
        print(
            f"fitted all {frame.n_customers} customers off the memory-mapped "
            f"store: {flagged_at_final_window(model)} above churn score 0.5 "
            f"(the kernel works one store shard at a time, so its working "
            f"set is constant memory in the population size)"
        )


if __name__ == "__main__":
    main()
