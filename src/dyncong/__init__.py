"""Dynamic network congestion games: model, solvers, and oracles."""

from .arena import Arena, ArenaError, Game, build_arena, parse_arena, serialize_arena, validate_arena
from .costfn import CostFunction, CostFunctionError, constant, kappa, linear, threshold, validate_pieces
from .dynamics import (
    BlindProfile,
    BlindStrategy,
    best_response,
    blind_ne,
    blind_strategy,
    is_blind_ne,
    play_profile,
    potential,
    strategy_from_states,
)
from .graphs import (
    INF,
    BudgetExceeded,
    OutcomePath,
    SemanticsError,
    dev_set,
    eval_path,
    parikh,
    step,
)
from .ne import (
    ValueTable,
    check_ne_outcome,
    compute_values,
    constrained_ne,
    equilibrium_ratio,
    gamma_min_ne,
    poa,
    pos,
)
from .outcome import path_from_json
from .socopt import constrained_social_optimum, social_optimum

# The SPE solver is imported on first use: of the CLI's commands only ``spe``
# and ``check-spe`` need it, and every command compiles what it imports.
_SPE_NAMES = (
    "LambdaResult",
    "check_spe_outcome",
    "compute_lambda",
    "constrained_spe",
    "gamma_min_spe",
    "spe_exists",
)

__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += ["spe", *_SPE_NAMES]


def __getattr__(name):
    if name == "spe" or name in _SPE_NAMES:
        import importlib

        spe = importlib.import_module(".spe", __name__)
        return spe if name == "spe" else getattr(spe, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
