import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import dyncong
from dyncong.arena import serialize_arena

from corpus import fig1_arena

# With bytecode caching off (``PYTHONDONTWRITEBYTECODE=1``) every CLI command
# compiles each module it imports, and the compile peak of the largest one is
# part of the command's peak memory.  CPython's peak jumps once a module
# passes about 4,096 tokens: compiling ``ne.py`` padded with dummy lines
# peaked at 1.418 MB with 4,094 tokens and at 1.645 MB with 4,110, under
# ``tracemalloc``.  Split or shrink a module before it crosses the line.
TOKEN_LIMIT = 4096


def _token_count(path):
    with open(path, "rb") as handle:
        return sum(
            1 for token in tokenize.tokenize(handle.readline)
            if token.type not in (tokenize.COMMENT, tokenize.NL)
        )


def test_every_module_stays_below_the_compile_peak_cliff():
    modules = sorted(Path(dyncong.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        assert _token_count(path) < TOKEN_LIMIT, path.name


# The oracles are the references the solvers are checked against, so they
# may use the game model and the blind-profile model, never a solver.
SOLVER_MODULES = {"ne", "spe", "socopt"}
BLIND_PROFILE_MODEL = {
    "BlindProfile", "BlindStrategy", "StrategyError", "blind_strategy",
    "play_profile", "profile_moves", "strategy_from_states",
}


def _package_imports(tree):
    """``(module, name)`` for every import of a ``dyncong`` module, where
    name is ``*`` when the module itself is imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("dyncong."):
                    yield alias.name.removeprefix("dyncong."), "*"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "dyncong" and not module.startswith("dyncong."):
                    continue
                module = module.removeprefix("dyncong").lstrip(".")
            for alias in node.names:
                if module:
                    yield module, alias.name
                else:
                    yield alias.name, "*"


def test_oracles_import_no_solver():
    path = Path(dyncong.__file__).parent / "oracle.py"
    imports = list(_package_imports(ast.parse(path.read_text())))
    assert ("graphs", "step") in imports
    for module, name in imports:
        top = module.split(".")[0]
        assert top not in SOLVER_MODULES, (module, name)
        if top == "dynamics":
            assert name in BLIND_PROFILE_MODEL, (module, name)


# The differential references keep their own counter update, so that a
# reference test compares two independent updates.  Neither may reach the
# solvers' shared ``graphs.counter_step`` or a solver built on it, by import
# or by attribute.
SHARED_COUNTER_STEP = {
    ("graphs", "counter_step"), ("ne", "_ne_successors"),
    ("spe", "CounterExploration"),
}


def test_differential_references_keep_their_own_counter_update():
    names = {name for _, name in SHARED_COUNTER_STEP}
    for reference in ("ne_reference.py", "spe_reference.py"):
        tree = ast.parse((Path(__file__).parent / reference).read_text())
        imports = set(_package_imports(tree))
        assert imports, reference
        assert not imports & SHARED_COUNTER_STEP, reference
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)}
        assert not read & names, reference


def test_ne_reference_enumerates_its_own_coalitions():
    # The reference lists and keys its coalitions itself, so a fault in the
    # solver's enumeration cannot pass into the table it is checked against.
    tree = ast.parse((Path(__file__).parent / "ne_reference.py").read_text())
    from_ne = {name for module, name in _package_imports(tree) if module == "ne"}
    assert from_ne == {"ValueTable"}


def _unused_imports(tree):
    """Names bound by a module-level import that the module never reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_module_import_is_used():
    # ``__init__.py`` imports to re-export, so it is left out.
    modules = sorted(Path(dyncong.__file__).parent.glob("*.py"))
    for path in modules:
        if path.name != "__init__.py":
            assert _unused_imports(ast.parse(path.read_text())) == [], path.name


# Every module-level import of another package in ``src/dyncong``.  Each
# query runs in a fresh interpreter and pays for what the package imports:
# ``dataclasses`` alone loaded ``inspect``, ``ast``, ``dis`` and ``tokenize``
# (about 8 ms and 1 MB a process), so a module joins this list only with its
# measured import cost.  Imports inside functions are left out.
STDLIB_ALLOWED = {
    "__future__", "functools", "heapq", "itertools", "json", "math", "os",
    "sys", "time", "types",
}


def test_module_level_imports_come_from_the_allowlist():
    for path in sorted(Path(dyncong.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "dyncong" or top in STDLIB_ALLOWED, (path.name, name)


def test_no_solver_function_calls_itself():
    # A recursive solver dies with a RecursionError on a long play or a
    # wide state, so every search and enumeration in the package is a loop.
    # The brute-force oracles stay recursive, since they are references.
    for path in sorted(Path(dyncong.__file__).parent.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = [node for node in ast.walk(func)
                         if isinstance(node, ast.Call)
                         and getattr(node.func, "id", None) == func.name]
                assert not calls, (path.name, func.name)


def _run_fresh(script, tmp_path):
    """Runs ``script`` in a fresh interpreter, since the test session has
    every module loaded, with the fig1 arena file as its argument."""
    arena = tmp_path / "fig1.json"
    arena.write_text(serialize_arena(fig1_arena()))
    env = {**os.environ, "PYTHONPATH": str(Path(dyncong.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, str(arena)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_only_spe_commands_import_the_spe_solver(tmp_path):
    # Every command compiles the modules it imports, so the package and the
    # CLI import ``spe`` on first use; its names stay reachable from the
    # package.
    script = (
        "import contextlib, io, sys\n"
        "import dyncong\n"
        "from dyncong.cli import run\n"
        "argv = ['--arena', sys.argv[1], '--players', '2']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    with contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert run(['ne', '--best', *argv]) == 0\n"
        "        assert 'dyncong.spe' not in sys.modules\n"
        "        assert run(['spe', '--best', *argv]) == 0\n"
        "assert 'dyncong.spe' in sys.modules\n"
        "assert dyncong.spe_exists is sys.modules['dyncong.spe'].spe_exists\n"
    )
    _run_fresh(script, tmp_path)


def test_a_query_loads_no_argument_parser(tmp_path):
    # The command line is read from ``cli.COMMANDS``; argparse with the
    # gettext and locale modules it loads cost about 6 ms a query.
    script = (
        "import contextlib, io, sys\n"
        "from dyncong.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    with contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert run(['so', '--arena', sys.argv[1], '--players', '2']) == 0\n"
        "loaded = {'argparse', 'gettext', 'locale'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    _run_fresh(script, tmp_path)


def test_queries_load_no_dataclasses_or_inspect(tmp_path):
    # The records are plain classes: ``dataclasses`` loads ``inspect``,
    # ``ast`` and ``dis``, about 8 ms and 1 MB a query.  ``spe`` is
    # imported on first use, so an SPE query runs too.
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import contextlib, io\n"
        "from dyncong.cli import run\n"
        "argv = ['--arena', sys.argv[1], '--players', '2']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    with contextlib.redirect_stderr(io.StringIO()):\n"
        "        for query in (['so'], ['blind-ne'], ['values'], ['spe', '--best']):\n"
        "            assert run([*query, *argv]) == 0, query\n"
        "assert 'dyncong.spe' in sys.modules\n"
        "loaded = {'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules) - bare\n"
        "assert not loaded, loaded\n"
    )
    _run_fresh(script, tmp_path)


def test_only_run_decides_the_exit_code():
    # Handlers return their payload, and ``cli.run`` alone prints it and
    # turns its answer into the exit code, the rule README states.
    for name in ("cli.py", "oracle_cli.py"):
        tree = ast.parse((Path(dyncong.__file__).parent / name).read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name != "run":
                for node in ast.walk(func):
                    found = getattr(node, "id", getattr(node, "attr", None))
                    assert found not in ("EXIT_OK", "EXIT_NO", "_emit"), (
                        name, func.name, found)


PROGRAM_HELP = """\
usage: dyncong [--format json|pretty] COMMAND [OPTIONS]

Dynamic network congestion game solvers. Bound comparisons are non-strict (cost <= bound).
An option may be shortened to a unique prefix; dyncong COMMAND --help lists its options.

commands:
  validate              parse and validate an arena file
  so                    social optimum
  blind-ne              blind Nash equilibrium by best-response iteration
  eval                  evaluate a blind profile
  values                coalition punishment values
  ne                    gamma-optimal Nash equilibrium
  check-ne              is the outcome a Nash equilibrium
  spe                   subgame-perfect equilibria
  check-spe             is the outcome subgame-perfect
  poa                   price of anarchy
  pos                   price of stability
  oracle so             brute-force social optimum
  oracle br             brute-force best response of the 1-based --player
  oracle values         brute-force coalition punishment values
  oracle ne-outcomes    brute-force Nash equilibrium outcomes
  oracle gen-partition  partition gadget of positive integers K
"""

SPE_HELP = """\
usage: dyncong spe --arena FILE --players N [--gamma W,...] [--best] [--worst] [--bound N] [--exists] [--dump-lambda FILE]

subgame-perfect equilibria
"""


def test_help_text_is_built_from_the_command_table(capsys):
    from dyncong.cli import COMMANDS, run

    for argv, text in [
        (["--help"], PROGRAM_HELP),
        (["-h"], PROGRAM_HELP),
        (["--format", "pretty", "--he"], PROGRAM_HELP),
        (["oracle", "-h"], PROGRAM_HELP),
        (["spe", "--help"], SPE_HELP),
        (["spe", "--arena", "x", "--h"], SPE_HELP),
    ]:
        assert run(argv) == 0
        assert capsys.readouterr() == (text, ""), argv
    listed = [line.split("  ")[1] for line in PROGRAM_HELP.splitlines()
              if line.startswith("  ")]
    assert listed == list(COMMANDS)
