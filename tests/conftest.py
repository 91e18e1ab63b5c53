import os
import sys
from pathlib import Path

import pytest

# No bytecode caches from a test run, in this process or its children: a
# cached src/dyncong/__pycache__ would let later benchmark runs in the same
# checkout skip module compiles and read lower setup times and memory.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.path.insert(0, str(Path(__file__).parent))

from corpus import corpus_games, fig1_arena, fig5_arena, trivial_arena

from dyncong.arena import Game
from dyncong.dynamics import strategy_from_states


@pytest.fixture(scope="session")
def fig1():
    return fig1_arena()


@pytest.fixture(scope="session")
def fig5():
    return fig5_arena()


@pytest.fixture(scope="session")
def fig1_g2(fig1):
    return Game(fig1, 2)


@pytest.fixture(scope="session")
def fig5_g3(fig5):
    return Game(fig5, 3)


@pytest.fixture(scope="session")
def trivial():
    return trivial_arena()


@pytest.fixture(scope="session")
def fig1_paths(fig1):
    return {
        "pi1": strategy_from_states(fig1, ["src", "v1", "v3", "tgt"]),
        "pi2": strategy_from_states(fig1, ["src", "v1", "v2", "v3", "tgt"]),
        "pi3": strategy_from_states(fig1, ["src", "v2", "v3", "tgt"]),
    }


@pytest.fixture(scope="session")
def fig5_paths(fig5):
    return {
        "rho1": strategy_from_states(fig5, ["q0", "q1", "q2", "q3", "q7"]),
        "rho2": strategy_from_states(fig5, ["q0", "q4", "q5", "q6", "q7"]),
        "rho3": strategy_from_states(fig5, ["q0", "q1", "q5", "q6", "q7"]),
        "rho4": strategy_from_states(fig5, ["q0", "q1", "q2", "q6", "q7"]),
    }


@pytest.fixture(scope="session")
def corpus():
    return corpus_games()
