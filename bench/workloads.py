"""The benchmark's workloads: fixed CLI query sequences over generated arenas.

In a query's arguments, ``@name`` stands for the arena file of ``name`` (see
:mod:`arenas`) and ``%label`` for a file made from the output of the earlier
query ``label`` in the same pass: the profile of a ``blind-ne`` query, or the
witness of an ``so``/``ne``/``spe`` query.

Each pass of a workload is sized to a few seconds of solve time, so one run
of the benchmark holds several passes and reports per-query medians.
"""

from __future__ import annotations

from dataclasses import dataclass

# Social optimum of grid4 with 4 players; the routing workload asks the
# bounded question at the optimum (yes) and one below it (no).  Relabelling
# seeds keep the game isomorphic, so the optimum holds on every seed.
GRID4_N4_SO = 49
# Best SPE of grid3 with 2 players; the subgame workload asks for an SPE
# strictly cheaper than it (no).
GRID3_N2_BEST_SPE = 19


@dataclass(frozen=True)
class Query:
    label: str
    args: tuple[str, ...]
    # False where tie-breaks decide the answer (a blind NE found by
    # best-response order, or whether one particular SO witness is an NE),
    # so it may differ between isomorphic relabellings of the arena.
    seed_invariant: bool = True

    @property
    def command(self) -> str:
        """The end-to-end metric group of the query, as in ``<command>_s``."""
        name = self.args[0]
        if name in ("blind-ne", "eval"):
            return "blind_ne"
        if name in ("poa", "pos"):
            return "ratio"
        if name == "ne":
            return "ne_worst" if "--worst" in self.args else "ne_best"
        return name.replace("-", "_")

    @property
    def kind(self) -> str:
        """``check`` for outcome checks, ``decide`` for bound and ratio
        questions, ``solve`` for the searches that return a witness."""
        if self.args[0] in ("eval", "check-ne", "check-spe"):
            return "check"
        if self.args[0] in ("poa", "pos") or "--bound" in self.args:
            return "decide"
        return "solve"

    def game(self) -> tuple[str, int]:
        arena = self.args[self.args.index("--arena") + 1].lstrip("@")
        return arena, int(self.args[self.args.index("--players") + 1])


def q(label, *args, seed_invariant=True) -> Query:
    return Query(label, tuple(args), seed_invariant)


WORKLOADS: dict[str, list[Query]] = {
    # socopt, graphs.distributions, costfn and dynamics do the work; ne, spe,
    # reachable_graph and shortest_path are bypassed.
    "routing": [
        q("so-grid3-n6", "so", "--arena", "@grid3", "--players", "6"),
        q("so-grid6-n3", "so", "--arena", "@grid6", "--players", "3"),
        q("so-bound-yes", "so", "--arena", "@grid4", "--players", "4",
          "--bound", str(GRID4_N4_SO)),
        q("so-bound-no", "so", "--arena", "@grid4", "--players", "4",
          "--bound", str(GRID4_N4_SO - 1)),
        q("blind-ne-grid6-n16", "blind-ne", "--arena", "@grid6",
          "--players", "16", seed_invariant=False),
        q("eval-grid6-n16", "eval", "--arena", "@grid6", "--players", "16",
          "--profile", "%blind-ne-grid6-n16", seed_invariant=False),
    ],
    # ne.compute_values dominates values and checks, the NE-graph search
    # dominates ne/poa/pos; SO is a small share and SPE is bypassed.
    "nash": [
        q("values-fig5-n7", "values", "--arena", "@fig5", "--players", "7"),
        q("ne-best-fig5-n6", "ne", "--best", "--arena", "@fig5",
          "--players", "6"),
        q("check-ne-fig5-n6", "check-ne", "--arena", "@fig5", "--players", "6",
          "--outcome", "%ne-best-fig5-n6"),
        q("so-grid4-n2", "so", "--arena", "@grid4", "--players", "2"),
        q("ne-best-grid4-n2", "ne", "--best", "--arena", "@grid4",
          "--players", "2"),
        q("ne-worst-grid4-n2", "ne", "--worst", "--arena", "@grid4",
          "--players", "2"),
        q("poa-grid4-n2", "poa", "--arena", "@grid4", "--players", "2"),
        q("pos-grid4-n2", "pos", "--arena", "@grid4", "--players", "2"),
        q("check-ne-so-grid4-n2", "check-ne", "--arena", "@grid4",
          "--players", "2", "--outcome", "%so-grid4-n2",
          seed_invariant=False),
    ],
    # spe.compute_lambda and the counter graphs dominate; reachable_graph and
    # shortest_path run on the counter graph instead of the NE graph.
    "subgame": [
        q("spe-exists-grid4-n2", "spe", "--exists", "--arena", "@grid4",
          "--players", "2"),
        q("spe-best-grid4-n2", "spe", "--best", "--arena", "@grid4",
          "--players", "2"),
        q("spe-worst-grid4-n2", "spe", "--worst", "--arena", "@grid4",
          "--players", "2"),
        q("spe-bound-grid3-n2", "spe", "--best", "--bound",
          str(GRID3_N2_BEST_SPE - 1), "--arena", "@grid3", "--players", "2"),
        q("check-spe-grid4-n2", "check-spe", "--arena", "@grid4",
          "--players", "2", "--outcome", "%spe-exists-grid4-n2"),
        q("spe-gamma-fig1-n3", "spe", "--gamma", "1,-1,1", "--arena", "@fig1",
          "--players", "3"),
        q("spe-gamma-fig5-n4", "spe", "--gamma", "1,-1,1,-1", "--arena",
          "@fig5", "--players", "4"),
        q("spe-gamma-grid3-n2", "spe", "--gamma", "1,-1", "--arena", "@grid3",
          "--players", "2"),
    ],
}


def arenas_of(workload: str) -> list[str]:
    names = []
    for query in WORKLOADS[workload]:
        name, _ = query.game()
        if name not in names:
            names.append(name)
    return names
