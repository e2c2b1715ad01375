"""Seeded generators for scenario models, risk sets and claims.

They follow ``tests/randmodels.py`` and live here so that edits to the test
helpers cannot change the benchmark's inputs.  Tree shapes come from a fixed
catalogue seed and ``--seed`` draws everything numeric: outcome labels,
reference, vertices and claims.  Op cost depends almost only on the shape
(hull vertex counts repeat exactly across seeds for a fixed shape), so fixing
the shapes keeps the cost mix the same from seed to seed.
"""

from __future__ import annotations

import numpy as np

SHAPE_SEED = 20060312


def refine_once(partition, rng, split_prob=0.7):
    out = []
    for atom in partition:
        atom = list(atom)
        if len(atom) >= 2 and rng.random() < split_prob:
            k = int(rng.integers(1, len(atom)))
            perm = atom.copy()
            rng.shuffle(perm)
            out.append(sorted(perm[:k]))
            out.append(sorted(perm[k:]))
        else:
            out.append(sorted(atom))
    return out


def coarsen(partition, rng):
    k = len(partition)
    n_groups = int(rng.integers(1, k + 1))
    assign = rng.integers(0, n_groups, k)
    groups: dict[int, list[int]] = {}
    for ai, g in enumerate(assign):
        groups.setdefault(int(g), []).extend(partition[ai])
    return [sorted(v) for v in groups.values()]


def shape(n, n_stages, variant):
    """Refining partition chain from the trivial to the discrete partition,
    plus one coarser financial partition per time after 0."""
    rng = np.random.default_rng([SHAPE_SEED, n, n_stages, variant])
    partitions = [[list(range(n))]]
    for _ in range(n_stages - 2):
        partitions.append(refine_once(partitions[-1], rng))
    partitions.append([[w] for w in range(n)])
    fins = {t: coarsen(partitions[t], rng) for t in range(1, n_stages)}
    return partitions, fins


def relabel(rng, partitions, fins):
    """Seeded outcome permutation applied to a shape."""
    perm = rng.permutation(len(partitions[-1]))

    def move(part):
        return [sorted(int(perm[w]) for w in atom) for atom in part]

    return [move(p) for p in partitions], {t: move(p) for t, p in fins.items()}


def reference(rng, n):
    ref = np.maximum(rng.dirichlet(np.full(n, 5.0)), 1e-3)
    return ref / ref.sum()


def vertices(rng, n, k):
    """``k`` full-support measures, so every atom is charged."""
    verts = np.maximum(rng.dirichlet(np.full(n, 2.0), size=k), 1e-4)
    return verts / verts.sum(axis=1, keepdims=True)


def claim_values(rng, n, count):
    return [rng.uniform(-1.0, 1.0, n) for _ in range(count)]
