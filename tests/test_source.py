import tokenize
from pathlib import Path

import dyncong

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
