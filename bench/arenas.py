"""Arena inputs of the benchmark: the gridK family and the paper's figures.

``gridK`` is a K x K grid of states ``r<row>c<col>`` with the source at the
top-left and the target at the bottom-right corner:

- right edges ``linear(1..3)``;
- down edges ``linear(1..3, 0..2)``;
- up-left diagonal back edges ``constant(1)`` with probability 0.3, never out
  of the target;
- a ``constant(1)`` wait self-loop on every non-target state.

Costs are drawn from ``random.Random(K)``, which reproduces the grid family
the ROADMAP baselines were measured on.  The benchmark seed does not redraw
them: it renames the states and shuffles the declaration order of states and
edges.  That yields an isomorphic game, so every cost, bound verdict and
ratio stays the same while the canonical tie-breaks, witnesses and stdout
bytes change, and the work of a query stays comparable across seeds.  Seed 0
is the identity relabelling.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DEFAULT_SEED = 0
FIGURES = Path(__file__).resolve().parent / "arenas"


def _pieces(slope: int, intercept: int = 0) -> dict:
    return {"pieces": [{"from_load": 1, "slope": slope, "intercept": intercept}]}


def grid(k: int) -> dict:
    """The gridK arena as a JSON object, in row-major declaration order."""
    rng = random.Random(k)
    name = lambda r, c: f"r{r}c{c}"
    tgt = name(k - 1, k - 1)
    edges = []

    def edge(frm, to, cost):
        edges.append({"from": frm, "to": to, "cost": cost})

    for r in range(k):
        for c in range(k):
            here = name(r, c)
            if here == tgt:
                continue
            if c < k - 1:
                edge(here, name(r, c + 1), _pieces(rng.randint(1, 3)))
            if r < k - 1:
                edge(here, name(r + 1, c),
                     _pieces(rng.randint(1, 3), rng.randint(0, 2)))
            if r > 0 and c > 0 and rng.random() < 0.3:
                edge(here, name(r - 1, c - 1), _pieces(0, 1))
            edge(here, here, _pieces(0, 1))
    return {
        "states": [name(r, c) for r in range(k) for c in range(k)],
        "source": name(0, 0),
        "target": tgt,
        "edges": edges,
    }


def relabel(arena: dict, seed: int) -> dict:
    """An isomorphic copy: states renamed, states and edges reordered."""
    if seed == DEFAULT_SEED:
        return arena
    rng = random.Random(f"dyncong-bench/{seed}")
    order = list(arena["states"])
    rng.shuffle(order)
    fresh = {old: f"s{i}" for i, old in enumerate(order)}
    rng.shuffle(order)
    edges = [
        {"from": fresh[e["from"]], "to": fresh[e["to"]], "cost": e["cost"]}
        for e in arena["edges"]
    ]
    rng.shuffle(edges)
    return {
        "states": [fresh[s] for s in order],
        "source": fresh[arena["source"]],
        "target": fresh[arena["target"]],
        "edges": edges,
    }


def arena(name: str, seed: int) -> dict:
    """``gridK`` or ``fig1``/``fig5``, relabelled by ``seed``."""
    if name.startswith("grid"):
        base = grid(int(name[4:]))
    else:
        base = json.loads((FIGURES / f"{name}.json").read_text(encoding="utf-8"))
    return relabel(base, seed)


def arena_text(name: str, seed: int) -> str:
    return json.dumps(arena(name, seed), indent=1) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
