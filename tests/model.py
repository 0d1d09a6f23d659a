"""The mutable engine's logical state as plain rows + liveness.

The oracle for every mutation test: ids are stable and handed out in
arrival order, a modify retires the old id and takes a fresh one, and an
answer is ``NaiveRRQ`` over the live rows with its dense weight indices
mapped back to ids.  Nothing here shares code with ``repro.storage``.
"""

import numpy as np

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet


class LiveModel:
    def __init__(self, value_range=1.0):
        self.value_range = value_range
        self.products, self.weights = [], []  # id -> row, None once dead

    def insert_product(self, vector):
        self.products.append(np.asarray(vector, dtype=np.float64))
        return len(self.products) - 1

    def insert_weight(self, vector):
        self.weights.append(np.asarray(vector, dtype=np.float64))
        return len(self.weights) - 1

    def delete_product(self, index):
        self.products[index] = None

    def delete_weight(self, index):
        self.weights[index] = None

    def modify_product(self, index, vector):
        self.delete_product(index)
        return self.insert_product(vector)

    def live_products(self):
        return [i for i, row in enumerate(self.products) if row is not None]

    def live_weights(self):
        return [i for i, row in enumerate(self.weights) if row is not None]

    def answers(self, q, k):
        """``(RTK id set, RKR (rank, id) entries)`` over the live rows."""
        w_ids = self.live_weights()
        naive = NaiveRRQ(
            ProductSet(np.array([self.products[i]
                                 for i in self.live_products()]),
                       value_range=self.value_range),
            WeightSet(np.array([self.weights[i] for i in w_ids])))
        rtk = frozenset(w_ids[j] for j in naive.reverse_topk(q, k).weights)
        rkr = tuple((rank, w_ids[j])
                    for rank, j in naive.reverse_kranks(q, k).entries)
        return rtk, rkr
