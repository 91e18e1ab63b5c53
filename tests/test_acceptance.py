"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Two criteria carry corrected reference answers, each fixed by hand
reckoning and not by reading the solver's output:

- criterion 3: four entries of the published 20-profile cost table (6, 7, 11
  and 17) disagree with the Figure 5 arena under synchronous joint steps; the
  table keeps the published values of the other 16 entries;
- criterion 9: the published "no" family (1,1,1,3) splits as {1,1,1} | {3},
  so its bound M-1 query is a yes; the "no" half now uses (1,1,1,5), which
  sums to 8 and has no subset of sum 4.
"""

import itertools
import random
import time
from fractions import Fraction

from dyncong.arena import Game
from dyncong.costfn import kappa
from dyncong.dynamics import (
    BlindProfile,
    best_response,
    blind_ne,
    blind_strategy,
    play_profile,
    potential,
    single_player_shortest,
)
from dyncong.graphs import step, target_config, initial_config
from dyncong.ne import check_ne_outcome, compute_values, constrained_ne, gamma_min_ne
from dyncong.oracle import (
    _all_blind_paths,
    _all_moves,
    brute_best_response,
    brute_ne_outcomes,
    brute_social_optimum,
    brute_values,
    gen_partition_arena,
)
from dyncong.outcome import path_from_configs
from dyncong.socopt import constrained_social_optimum, social_optimum
from dyncong.spe import check_spe_outcome, compute_lambda, gamma_min_spe, spe_exists

from corpus import random_arena


def _report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {desc}")
    assert not failures, f"criterion {num} ({desc}): " + " | ".join(failures)


def test_criterion_01_example_replay(fig1_g2, fig1_paths):
    failures = []
    profile = BlindProfile((fig1_paths["pi1"], fig1_paths["pi2"]))
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        costs, social, path = play_profile(fig1_g2, profile)
        elapsed.append(time.perf_counter() - t0)
    if [w for _, w, _ in path.steps] != [(2, 2), (3, 6), (4, 1), (0, 4)]:
        failures.append(f"weights {[w for _, w, _ in path.steps]}")
    if costs != (9, 13):
        failures.append(f"costs {costs}")
    if min(elapsed) >= 0.001:
        failures.append(f"replay took {min(elapsed) * 1000:.3f} ms")
    _report(1, "Example-1 replay: exact weights and costs, < 1 ms", failures)


def test_criterion_02_example_four_ne(fig1, fig1_g2, fig1_paths):
    failures = []
    idx = fig1.index
    adaptive = path_from_configs(
        fig1_g2,
        [
            (idx("src"), idx("src")),
            (idx("v2"), idx("v1")),
            (idx("v3"), idx("v2")),
            (idx("tgt"), idx("v3")),
            (idx("tgt"), idx("tgt")),
        ],
    )
    values = compute_values(fig1_g2)
    if (adaptive.cost(0), adaptive.cost(1)) != (10, 12):
        failures.append("adaptive outcome costs")
    if not check_ne_outcome(fig1_g2, adaptive, values):
        failures.append("the (10, 12) outcome must be accepted")
    _, _, shared = play_profile(
        fig1_g2, BlindProfile((fig1_paths["pi1"], fig1_paths["pi1"]))
    )
    if (shared.cost(0), shared.cost(1)) != (16, 16):
        failures.append("shared-route outcome costs")
    if check_ne_outcome(fig1_g2, shared, values):
        failures.append("the (16, 16) outcome must be rejected")
    _report(2, "Example-4 NE outcome accepted, shared-route outcome rejected",
            failures)


# The 20-entry blind-profile cost table of the Figure 5 example.  The social
# cost is the sum over the four joint steps of load * d_e(load), with
# d_e(k) = slope * k on linear edges and the constant on constant edges.
# Sixteen entries are the published values.  Entries 6, 7, 11 and 17 are
# corrected by hand: the published 41, 37, 42 and 51 disagree with these sums
# (51 is the cost of entry 20).  The published table is wrong independently of
# the arena, too: with every d_e(k) on this graph (10 edges, loads 1-3) left
# unknown, its 20 entries form a linear system with no solution, even after any
# one or any two entries are dropped.
_TABLE = [
    (("rho1", "rho1", "rho1"), 54),
    (("rho2", "rho2", "rho2"), 72),
    (("rho3", "rho3", "rho3"), 63),
    (("rho4", "rho4", "rho4"), 54),
    (("rho1", "rho2", "rho3"), 37),
    (("rho1", "rho3", "rho4"), 43),  # 18 + 7 + 8 + 10; published 41
    (("rho1", "rho2", "rho4"), 36),  # 11 + 7 + 8 + 10; published 37
    (("rho2", "rho3", "rho4"), 45),
    (("rho1", "rho1", "rho2"), 36),
    (("rho1", "rho1", "rho3"), 43),
    (("rho1", "rho1", "rho4"), 46),  # 18 + 9 + 9 + 10; published 42
    (("rho2", "rho2", "rho1"), 42),
    (("rho2", "rho2", "rho3"), 55),
    (("rho2", "rho2", "rho4"), 50),
    (("rho3", "rho3", "rho1"), 46),
    (("rho3", "rho3", "rho2"), 52),
    (("rho3", "rho3", "rho4"), 54),  # 18 + 7 + 11 + 18; published 51
    (("rho4", "rho4", "rho1"), 46),
    (("rho4", "rho4", "rho2"), 44),
    (("rho4", "rho4", "rho3"), 51),
]


def test_criterion_03_blind_cost_table(fig5_g3, fig5_paths):
    failures = []
    t0 = time.perf_counter()
    for names, want in _TABLE:
        profile = BlindProfile(tuple(fig5_paths[n] for n in names))
        _, social, _ = play_profile(fig5_g3, profile)
        if social != want:
            failures.append(f"{names}: expected {want}, evaluated {social}")
    if time.perf_counter() - t0 >= 1.0:
        failures.append("table evaluation exceeded one second")
    _report(3, "all 20 profile costs of the table reproduced exactly", failures)


def test_criterion_04_blind_suboptimality(fig5_g3, fig5_paths):
    failures = []
    ok, cost, witness = constrained_ne(fig5_g3, (1, 1, 1), 36)
    if not ok or witness is None:
        failures.append("an equilibrium of social cost <= 36 must exist")
    profile, _ = blind_ne(fig5_g3)
    _, social, _ = play_profile(fig5_g3, profile)
    if social <= 36:
        failures.append(f"blind equilibrium social cost {social} <= 36")
    tempting = BlindProfile(
        (fig5_paths["rho1"], fig5_paths["rho1"], fig5_paths["rho2"])
    )
    costs, _, _ = play_profile(fig5_g3, tempting)
    _, br_cost = best_response(fig5_g3, tempting, 0)
    if not (br_cost == 13 < costs[0]):
        failures.append(f"deviation costs {br_cost} against current {costs[0]}")
    _report(4, "general equilibria reach 36 while blind ones cannot", failures)


def test_criterion_05_potential_descent():
    failures = []
    rng = random.Random(2024)
    swaps_checked = 0
    while swaps_checked < 100:
        arena = random_arena(rng)
        game = Game(arena, rng.randint(2, 3))
        paths = _all_blind_paths(arena, min(len(arena.states) + 1, 6))
        if len(paths) < 2:
            continue
        profile = BlindProfile(
            tuple(blind_strategy(arena, rng.choice(paths)) for _ in range(game.n))
        )
        player = rng.randrange(game.n)
        swapped = profile.replace(player, blind_strategy(arena, rng.choice(paths)))
        costs, _, _ = play_profile(game, profile)
        new_costs, _, _ = play_profile(game, swapped)
        lhs = potential(game, profile) - potential(game, swapped)
        rhs = costs[player] - new_costs[player]
        if lhs != rhs:
            failures.append(f"potential moved by {lhs}, cost by {rhs}")
            break
        swaps_checked += 1

        initial = BlindProfile(
            (single_player_shortest(arena),) * game.n
        )
        cap = potential(game, initial)
        _, improvement_steps = blind_ne(game)
        if improvement_steps > cap:
            failures.append(
                f"{improvement_steps} improvement steps above potential {cap}"
            )
            break
    _report(5, "exact potential identity on 100 random swaps; descent bound",
            failures)


def test_criterion_06_spe_fig1(fig1_g2, fig1_paths):
    failures = []
    lam = compute_lambda(fig1_g2)
    ok, _ = spe_exists(fig1_g2, lam)
    if not ok:
        failures.append("a subgame-perfect equilibrium must exist")
    _, _, path = play_profile(
        fig1_g2, BlindProfile((fig1_paths["pi1"], fig1_paths["pi2"]))
    )
    if not check_spe_outcome(fig1_g2, path, lam):
        failures.append("the social-cost-22 outcome must be subgame-perfect")
    found = gamma_min_spe(fig1_g2, (1, 1), lam)
    if found is None or found[0] > 22:
        failures.append(f"best subgame-perfect cost {found and found[0]} > 22")
    _report(6, "subgame-perfect equilibrium exists with cost <= 22", failures)


def _bounded_target_paths(game, max_steps):
    goal = target_config(game)
    found = []

    def walk(configs):
        if configs[-1] == goal:
            found.append(tuple(configs))
            return
        if len(configs) - 1 == max_steps:
            return
        for moves in _all_moves(game, configs[-1]):
            _, nxt = step(game, configs[-1], moves)
            walk(configs + [nxt])

    walk([initial_config(game)])
    return found


def test_criterion_07_oracle_equivalence(corpus):
    failures = []
    t0 = time.perf_counter()
    assert len(corpus) >= 15
    for name, game in corpus:
        arena = game.arena
        cap = game.n * len(arena.states)
        if brute_social_optimum(game, cap) != social_optimum(game).cost:
            failures.append(f"{name}: social optima differ")

        values = compute_values(game)
        num_states = len(arena.states)
        multisets = sum(
            1
            for _ in itertools.combinations_with_replacement(
                range(num_states), game.n - 1
            )
        )
        horizon = num_states * multisets + 1
        brute = brute_values(game, horizon)
        for state, value in values.values.items():
            if brute[state] != value:
                failures.append(f"{name}: value at {state} differs")
                break

        ne_profile, _ = blind_ne(game)
        shortest = BlindProfile((single_player_shortest(arena),) * game.n)
        for profile in (shortest, ne_profile):
            limit = profile.horizon + len(arena.states)
            for player in range(game.n):
                got = best_response(game, profile, player)[1]
                want = brute_best_response(game, profile, player, limit)
                if got != want:
                    failures.append(f"{name}: best response differs for {player}")

        accepted = set(brute_ne_outcomes(game, 6))
        direct = set()
        for configs in _bounded_target_paths(game, 6):
            path = path_from_configs(game, list(configs))
            if check_ne_outcome(game, path, values):
                direct.add(path)
        if accepted != direct:
            failures.append(f"{name}: equilibrium outcome sets differ")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        failures.append(f"oracle sweep took {elapsed:.0f} s")
    _report(7, "brute-force oracles agree with every solver on the corpus",
            failures)


def test_criterion_08_label_fixpoint_sanity(corpus):
    failures = []
    for name, game in corpus:
        arena = game.arena
        try:
            lam = compute_lambda(game)  # shrink + growth asserted inline
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
            continue
        cap = len(arena.states) * (
            1 + game.n * kappa(game) * len(arena.edges) ** game.n
        )
        for region, iterations in lam.region_iterations.items():
            if iterations > cap:
                failures.append(f"{name}: region {region} took {iterations}")
        ceiling = len(arena.states) * kappa(game)
        for labels in lam.labels.values():
            for v in labels:
                if v != float("-inf") and not 0 <= v <= ceiling:
                    failures.append(f"{name}: label {v} out of range")
    _report(8, "labels shrink, stabilise in bound, stay below |V| * kappa",
            failures)


def test_criterion_09_partition_gadget():
    failures = []
    game, big_m = gen_partition_arena([1, 1])
    cost = social_optimum(game).cost
    if cost != 38:
        failures.append(f"family (1,1): optimum {cost} != 38 = 14S + 12m")
    ok, _ = constrained_social_optimum(game, big_m - 1)
    if not ok:
        failures.append("family (1,1): bound M-1 must be satisfiable")
    # The criterion published (1,1,1,3) as non-partitionable, but
    # {1,1,1} | {3} splits it into two halves of sum 3, so by the gadget's
    # contract its bound M-1 query is a yes at 14S + 12m = 90 (S = 3, m = 4).
    game, big_m = gen_partition_arena([1, 1, 1, 3])
    cost = social_optimum(game).cost
    if cost != 90:
        failures.append(f"family (1,1,1,3): optimum {cost} != 90 = 14S + 12m")
    ok, _ = constrained_social_optimum(game, big_m - 1)
    if not ok:
        failures.append("family (1,1,1,3): bound M-1 must be satisfiable")
    # The "no" half: (1,1,1,5) sums to 8 and no subset of it sums to 4.
    game, big_m = gen_partition_arena([1, 1, 1, 5])
    ok, _ = constrained_social_optimum(game, big_m - 1)
    if ok:
        failures.append("family (1,1,1,5): bound M-1 must be unsatisfiable")
    _report(9, "partition gadget optimum and bounded queries", failures)


def test_criterion_10_metric_sandwich(corpus):
    failures = []
    for name, game in corpus:
        values = compute_values(game)
        so = social_optimum(game).cost
        best, _ = gamma_min_ne(game, (1,) * game.n, values)
        worst = -gamma_min_ne(game, (-1,) * game.n, values)[0]
        if not so <= best <= worst:
            failures.append(f"{name}: {so} <= {best} <= {worst} broken")
            continue
        if so == 0:
            if worst == 0:
                pos = poa = Fraction(1)
            else:
                continue  # infinite anarchy, nothing to compare exactly
        else:
            pos = Fraction(best, so)
            poa = Fraction(worst, so)
        if not (1 <= pos <= poa):
            failures.append(f"{name}: 1 <= {pos} <= {poa} broken")
    _report(10, "social optimum <= best <= worst equilibrium; 1 <= PoS <= PoA",
            failures)
