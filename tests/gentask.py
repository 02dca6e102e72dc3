"""Seeded generated tasks: n content chunks plus a comma, k distinct orderings.

generated_space(n, k, seed) is a pure function of its arguments. Content
chunks have ids 1..n and are read in that order; the comma is chunk 0. Each
ordering is a permutation of all n + 1 chunks, drawn by shuffling with
random.Random(seed) until k distinct ones are found, in the order found.
The prior over them is uniform.
"""

import math
import random

from abctrans.task import Chunk, ChunkTable, build_candidate_space


def generated_table(n: int) -> ChunkTable:
    chunks = tuple(Chunk(c, f"source {c}", f"target {c}") for c in range(1, n + 1))
    chunks += (Chunk(0, "", "、", kind="punctuation"),)
    return ChunkTable(chunks=chunks, source_order=tuple(range(1, n + 1)))


def generated_space(n: int, k: int, seed: int):
    if not 1 <= k <= math.factorial(n + 1):
        raise ValueError(f"{k} distinct orderings of {n + 1} chunks do not exist")
    rng = random.Random(seed)
    orderings: list[tuple[int, ...]] = []
    while len(orderings) < k:
        perm = list(range(n + 1))
        rng.shuffle(perm)
        if tuple(perm) not in orderings:
            orderings.append(tuple(perm))
    labels = tuple(f"G{i}" for i in range(k))
    return build_candidate_space(generated_table(n), orderings, labels=labels)
