"""Deterministic random instance corpora shared by the heavier tests.

Every generator seeds its own RNG, so the corpus is identical on every run.
Instances are built from unions of feasible solutions (permutations for
assignments, monotone paths for DAGs), which guarantees the structural
arc-consistency precondition: every edge lies on at least one support.
"""

from __future__ import annotations

import random

from rcfilter import EdgeId, SatisfactionInstance, weighted_instance


def alldiff_corpus(count: int = 200, seed: int = 20240811):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 5)
        perms = set()
        for _ in range(rng.randint(2, 4)):
            p = list(range(n))
            rng.shuffle(p)
            perms.add(tuple(p))
        edges = sorted({(i, p[i]) for p in perms for i in range(n)})
        triples = [(i, j, rng.randint(0, 9)) for i, j in edges]
        z_max = rng.randint(0, 15)
        out.append(
            weighted_instance("alldiff", n, range(n), triples, z_max=z_max)
        )
    return out


def path_corpus(count: int = 100, seed: int = 20240812):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(3, 8)  # vertex count, source 0, sink m-1
        arcs = set()
        for _ in range(rng.randint(1, 3)):
            # a monotone vertex sequence from source to sink is always acyclic
            inner = sorted(
                rng.sample(range(1, m - 1), rng.randint(0, m - 2))
            )
            walk = [0] + inner + [m - 1]
            arcs.update(zip(walk, walk[1:]))
        vertices = sorted({v for a in arcs for v in a})
        if len(vertices) < 2:
            continue
        index = {v: k for k, v in enumerate(vertices)}
        triples = [
            (index[i], index[j], rng.randint(0, 9)) for i, j in sorted(arcs)
        ]
        z_max = rng.randint(0, 15)
        out.append(
            weighted_instance(
                "path",
                len(vertices) - 1,
                range(len(vertices)),
                triples,
                z_max=z_max,
                source=0,
                sink=len(vertices) - 1,
            )
        )
    return out


def satisfaction_corpus(count: int = 50, seed: int = 20240813):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        base = list(range(n))
        rng.shuffle(base)
        edges = {(i, base[i]) for i in range(n)}  # keeps the instance satisfiable
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.4:
                    edges.add((i, j))
        out.append(
            SatisfactionInstance(
                n_vars=n,
                values=tuple(range(n)),
                edges=tuple(EdgeId(i, j) for i, j in sorted(edges)),
            )
        )
    return out


def permutation_alldiff(n: int, seed: int):
    """An n-variable union of n/2 seeded permutations, costs 0-9, z_max = 0.

    Above the enumeration cap for n > 8; every edge lies on a support.
    """
    rng = random.Random(seed)
    edges = set()
    for _ in range(max(2, n // 2)):
        p = list(range(n))
        rng.shuffle(p)
        edges.update(enumerate(p))
    triples = [(i, j, rng.randint(0, 9)) for i, j in sorted(edges)]
    return weighted_instance("alldiff", n, range(n), triples, z_max=0)


def layered_dag(depth: int, seed: int, width: int = 6, successors: int = 3):
    """Source, ``depth`` layers of ``width`` vertices, sink; costs 0-9, z_max = 0.

    Each layer vertex has ``successors`` arcs into the next layer, one of
    them to its own position, so every vertex lies on a source-sink path:
    about ``width * successors * depth`` arcs.
    """
    rng = random.Random(seed)
    sink = width * depth + 1
    layer = [[1 + k * width + p for p in range(width)] for k in range(depth)]
    arcs = [(0, v) for v in layer[0]] + [(v, sink) for v in layer[-1]]
    for up, down in zip(layer, layer[1:]):
        for p, v in enumerate(up):
            others = rng.sample([q for q in range(width) if q != p], successors - 1)
            arcs += [(v, down[q]) for q in sorted(others + [p])]
    triples = [(i, j, rng.randint(0, 9)) for i, j in sorted(arcs)]
    return weighted_instance(
        "path", sink, range(sink + 1), triples, z_max=0, source=0, sink=sink
    )


def tight_satisfaction(n, rng):
    """n variables with a seeded perfect matching, a tight set and random extra edges.

    A third of the variables take only the values the matching gives them
    (plus random ones among those), so every edge of another variable into
    those values is inconsistent; the others get each value with
    probability 3/n.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    tight = set(rng.sample(range(n), max(1, n // 3)))
    held = [perm[i] for i in sorted(tight)]
    edges = {(i, perm[i]) for i in range(n)}
    for i in range(n):
        choices = held if i in tight else range(n)
        edges.update((i, j) for j in choices if rng.random() < 3 / n)
    return SatisfactionInstance(n, tuple(range(n)), tuple(EdgeId(*e) for e in sorted(edges)))
