#!/usr/bin/env python3
"""A live catalogue: incremental updates and bundle queries.

Goes beyond the paper's static experiments to what a deployed
recommendation backend needs day to day:

* products launch and retire while queries keep flowing (a memory-only
  :class:`~repro.storage.SegmentStore`);
* marketing asks about *bundles* — "which customers should we pitch this
  three-product kit to?" — the aggregate reverse rank query of the
  authors' follow-up work (``repro.ext.aggregate``).

Run: ``python examples/live_catalog.py``
"""

import numpy as np

from repro import uniform_products, uniform_weights
from repro.ext.aggregate import AggregateGridIndexRKR
from repro.stats.report import print_table
from repro.storage import SegmentStore

DIM = 5
SEED = 2024


def main() -> None:
    rng = np.random.default_rng(SEED)

    # --- Bootstrap the live engine from an initial catalogue ---------------
    P0 = uniform_products(800, DIM, value_range=1.0, seed=SEED)
    W0 = uniform_weights(700, DIM, seed=SEED + 1)
    engine = SegmentStore.from_datasets(P0, W0, partitions=32)
    print(f"Bootstrapped: {engine.num_products} products, "
          f"{engine.num_weights} customers")

    flagship = P0.values[5]
    baseline = engine.reverse_topk(flagship, k=15)
    print(f"Flagship product reaches {baseline.size} customers' top-15.\n")

    # --- Day 1: a competitor launches 50 strong products --------------------
    strong = rng.random((50, DIM)) * 0.25  # uniformly good (low = better)
    for row in strong:
        engine.insert_product(row)
    after_launch = engine.reverse_topk(flagship, k=15)
    print(f"After 50 strong competitor launches: "
          f"{after_launch.size} customers (was {baseline.size}).")

    # --- Day 2: the competitor's products are recalled ----------------------
    for idx in range(800, 850):
        engine.remove_product(idx)
    after_recall = engine.reverse_topk(flagship, k=15)
    print(f"After the recall: {after_recall.size} customers "
          f"(back to baseline: {after_recall.weights == baseline.weights}).")

    # --- Day 3: customer churn + signups ------------------------------------
    for idx in rng.choice(700, size=60, replace=False):
        engine.remove_weight(int(idx))
    for _ in range(90):
        engine.insert_weight(rng.dirichlet(np.ones(DIM)))
    print(f"After churn: {engine.num_weights} customers, "
          f"fragmentation {engine.fragmentation():.1%}")
    engine.compact()
    print(f"Compacted: fragmentation {engine.fragmentation():.1%}\n")

    # --- Bundle campaign ------------------------------------------------------
    # Pitch a starter kit of three products to the 8 best-matching
    # customers, under both aggregate semantics.
    P1 = uniform_products(800, DIM, value_range=1.0, seed=SEED)  # static copy
    W1 = uniform_weights(700, DIM, seed=SEED + 1)
    solver = AggregateGridIndexRKR(P1, W1)
    kit = [P1.values[5], P1.values[123], P1.values[456]]
    rows = []
    for aggregation in ("sum", "max"):
        result = solver.query(kit, k=8, aggregation=aggregation)
        rows.append([
            aggregation,
            ", ".join(str(idx) for _, idx in result.entries[:8]),
            result.entries[0][0],
        ])
    print_table(
        ["aggregation", "best customers", "best aggregate rank"],
        rows,
        title="Bundle campaign: aggregate reverse 8-ranks for a 3-product kit",
    )
    print("('sum' favours customers good on average; 'max' requires every "
          "kit member to rank well.)")


if __name__ == "__main__":
    main()
