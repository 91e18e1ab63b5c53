"""Fixed arenas and the tiny-game corpus shared across the test suite."""

from __future__ import annotations

import functools
import random

from dyncong.arena import Arena, Game, build_arena
from dyncong.costfn import constant, linear, threshold
from dyncong.ne import compute_values, gamma_min_ne


def fig1_arena() -> Arena:
    return build_arena(
        ["src", "v1", "v2", "v3", "tgt"],
        [
            ("src", "v1", linear(1)),
            ("src", "v2", constant(5)),
            ("v1", "v2", constant(6)),
            ("v1", "v3", linear(3)),
            ("v2", "v3", linear(1)),
            ("v3", "tgt", linear(4)),
        ],
        "src",
        "tgt",
    )


def fig5_arena() -> Arena:
    return build_arena(
        ["q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7"],
        [
            ("q0", "q1", linear(2)),
            ("q0", "q4", linear(3)),
            ("q1", "q2", constant(3)),
            ("q2", "q3", constant(3)),
            ("q3", "q7", linear(2)),
            ("q4", "q5", linear(1)),
            ("q5", "q6", linear(2)),
            ("q6", "q7", linear(2)),
            ("q1", "q5", linear(1)),
            ("q2", "q6", constant(3)),
        ],
        "q0",
        "q7",
    )


def trivial_arena() -> Arena:
    return build_arena(["src", "tgt"], [("src", "tgt", linear(1))], "src", "tgt")


def diamond_arena() -> Arena:
    return build_arena(
        ["src", "a", "b", "tgt"],
        [
            ("src", "a", linear(1)),
            ("src", "b", linear(2)),
            ("a", "tgt", linear(1)),
            ("b", "tgt", constant(1)),
        ],
        "src",
        "tgt",
    )


def chain_arena() -> Arena:
    return build_arena(
        ["src", "a", "b", "tgt"],
        [
            ("src", "a", linear(2)),
            ("a", "b", linear(1)),
            ("b", "tgt", threshold(2, 1, 4)),
        ],
        "src",
        "tgt",
    )


def free_wait_arena() -> Arena:
    return build_arena(
        ["src", "tgt"],
        [("src", "src", constant(0)), ("src", "tgt", linear(3))],
        "src",
        "tgt",
    )


def paid_wait_arena() -> Arena:
    return build_arena(
        ["src", "tgt"],
        [("src", "src", constant(1)), ("src", "tgt", linear(4))],
        "src",
        "tgt",
    )


def merge_arena() -> Arena:
    return build_arena(
        ["src", "a", "b", "c", "tgt"],
        [
            ("src", "a", constant(2)),
            ("src", "b", linear(1)),
            ("a", "c", linear(1)),
            ("b", "c", constant(1)),
            ("c", "tgt", linear(2)),
        ],
        "src",
        "tgt",
    )


def threshold_arena() -> Arena:
    return build_arena(
        ["src", "a", "b", "tgt"],
        [
            ("src", "a", threshold(1, 1, 5)),
            ("a", "tgt", linear(1)),
            ("src", "b", constant(3)),
            ("b", "tgt", threshold(2, 2, 9)),
        ],
        "src",
        "tgt",
    )


def zero_cost_arena() -> Arena:
    return build_arena(["src", "tgt"], [("src", "tgt", constant(0))], "src", "tgt")


def shortcut_arena() -> Arena:
    return build_arena(
        ["src", "a", "tgt"],
        [
            ("src", "a", linear(1)),
            ("a", "tgt", linear(1)),
            ("src", "tgt", constant(4)),
        ],
        "src",
        "tgt",
    )


def detour_arena() -> Arena:
    return build_arena(
        ["src", "a", "tgt"],
        [
            ("src", "a", linear(2)),
            ("a", "tgt", linear(1)),
            ("a", "src", constant(1)),
        ],
        "src",
        "tgt",
    )


def corpus_games() -> list[tuple[str, Game]]:
    """The fixed desk-scale corpus: |V| <= 6, n <= 3, low branching."""
    games = [
        ("fig1-n1", Game(fig1_arena(), 1)),
        ("fig1-n2", Game(fig1_arena(), 2)),
        ("trivial-n2", Game(trivial_arena(), 2)),
        ("trivial-n3", Game(trivial_arena(), 3)),
        ("diamond-n2", Game(diamond_arena(), 2)),
        ("diamond-n3", Game(diamond_arena(), 3)),
        ("chain-n3", Game(chain_arena(), 3)),
        ("free-wait-n2", Game(free_wait_arena(), 2)),
        ("paid-wait-n2", Game(paid_wait_arena(), 2)),
        ("merge-n2", Game(merge_arena(), 2)),
        ("merge-n3", Game(merge_arena(), 3)),
        ("threshold-n2", Game(threshold_arena(), 2)),
        ("threshold-n3", Game(threshold_arena(), 3)),
        ("zero-n2", Game(zero_cost_arena(), 2)),
        ("shortcut-n2", Game(shortcut_arena(), 2)),
        ("shortcut-n3", Game(shortcut_arena(), 3)),
        ("detour-n2", Game(detour_arena(), 2)),
    ]
    for _, game in games:
        assert len(game.arena.states) <= 6 and game.n <= 3
    return games


_COST_MAKERS = [
    lambda rng: linear(rng.randint(0, 3), rng.randint(0, 3)),
    lambda rng: constant(rng.randint(0, 5)),
    lambda rng: threshold(rng.randint(1, 2), rng.randint(0, 2), rng.randint(2, 6)),
]


def random_arena(rng: random.Random) -> Arena:
    """Random small arena: a src -> ... -> tgt backbone plus extra edges."""
    num = rng.randint(3, 6)
    names = [f"v{i}" for i in range(num)]
    edges = {}
    for i in range(num - 1):
        edges[(names[i], names[i + 1])] = rng.choice(_COST_MAKERS)(rng)
    for frm in names[:-1]:  # no new edges out of tgt
        for to in names:
            if (frm, to) in edges or rng.random() > 0.25:
                continue
            edges[(frm, to)] = rng.choice(_COST_MAKERS)(rng)
    return build_arena(
        names, [(f, t, fn) for (f, t), fn in edges.items()], names[0], names[-1]
    )


def layered_arena(rng: random.Random) -> Arena:
    """Random arena whose every edge off the target leads one hop closer:
    the source on top, then one to four layers of one to three states, each
    state with edges into one to three states of the layer below, and the
    target alone at the bottom."""
    layers = [["tgt"]]
    for depth in range(rng.randint(1, 4), 0, -1):
        layers.insert(0, [f"l{depth}s{k}" for k in range(rng.randint(1, 3))])
    layers.insert(0, ["src"])
    edges = [
        (frm, to, rng.choice(_COST_MAKERS)(rng))
        for layer, below in zip(layers, layers[1:])
        for frm in layer
        for to in rng.sample(below, rng.randint(1, len(below)))
    ]
    return build_arena(sum(layers, []), edges, "src", "tgt")


@functools.cache
def ne_gap_games(seed: int, count: int) -> list[tuple[Game, object]]:
    """Seeded random two-player arenas whose NE social costs differ (best
    NE < worst NE), each with its value table."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        game = Game(random_arena(rng), 2)
        values = compute_values(game)
        best = gamma_min_ne(game, (1, 1), values)
        worst = gamma_min_ne(game, (-1, -1), values)
        if best[0] < -worst[0]:
            found.append((game, values))
    return found


def grid_arena(k: int) -> Arena:
    """The k x k benchmark grid: right and down edges, up-left back edges
    with probability 0.3 and a paid wait loop on every non-target state,
    with costs drawn from ``random.Random(k)``."""
    rng = random.Random(k)
    name = lambda r, c: f"r{r}c{c}"
    tgt = name(k - 1, k - 1)
    edges = []
    for r in range(k):
        for c in range(k):
            here = name(r, c)
            if here == tgt:
                continue
            if c < k - 1:
                edges.append((here, name(r, c + 1), linear(rng.randint(1, 3))))
            if r < k - 1:
                edges.append((here, name(r + 1, c),
                              linear(rng.randint(1, 3), rng.randint(0, 2))))
            if r > 0 and c > 0 and rng.random() < 0.3:
                edges.append((here, name(r - 1, c - 1), constant(1)))
            edges.append((here, here, constant(1)))
    states = [name(r, c) for r in range(k) for c in range(k)]
    return build_arena(states, edges, states[0], tgt)


def differential_games() -> list[Game]:
    """The corpus, the NE gap games, 30 random arenas with one to three
    players and grid3 with two: the games on which the solvers are checked
    against their earlier implementations."""
    rng = random.Random(17)
    games = [game for _, game in corpus_games()]
    games += [game for game, _ in ne_gap_games(41, 8)]
    games += [Game(random_arena(rng), 1 + k % 3) for k in range(30)]
    games.append(Game(grid_arena(3), 2))
    return games
