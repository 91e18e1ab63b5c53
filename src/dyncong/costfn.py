"""Non-decreasing piecewise-affine edge cost functions over positive loads."""

from __future__ import annotations


class CostFunctionError(ValueError):
    """Raised for malformed piece lists or out-of-domain evaluation."""


class Record:
    """A value record: ``==`` and ``hash`` read the tuple of the attributes
    that ``_fields`` names, so hashing fails where one is unhashable (an
    arena's edge map).  A plain class, since ``dataclasses`` would cost
    every process its import of ``inspect``, ``ast`` and ``dis``."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class CostFunction(Record):
    """Maps a positive load to a natural cost.

    ``pieces`` is a tuple of ``(from_load, slope, intercept)`` triples; piece k
    applies on loads in ``[from_load_k, from_load_{k+1} - 1]``, the last piece
    extends to infinity, and the value at load x is ``slope * x + intercept``.
    Construct through :func:`validate_pieces` so the invariants hold.
    """

    _fields = ("pieces",)

    def __init__(self, pieces: tuple[tuple[int, int, int], ...]):
        self.pieces = pieces

    def __call__(self, load: int) -> int:
        if load < 1:
            raise CostFunctionError(
                f"cost functions are defined on loads >= 1, got {load}"
            )
        slope, intercept = self.pieces[0][1], self.pieces[0][2]
        for from_load, a, b in self.pieces:
            if from_load > load:
                break
            slope, intercept = a, b
        return slope * load + intercept

    @property
    def is_zero(self) -> bool:
        return all(a == 0 and b == 0 for _, a, b in self.pieces)


def validate_pieces(pieces) -> CostFunction:
    """Checks the piece list and returns the corresponding cost function.

    Raises :class:`CostFunctionError` on empty lists, non-integer or negative
    coefficients, unsorted/overlapping pieces, a first piece not starting at
    load 1, or a decrease at any piece boundary.  Monotonicity inside a piece
    follows from slope >= 0, so only boundaries ``x = from_load`` are checked
    against ``x - 1``.
    """
    entries = [tuple(p) for p in pieces]
    if not entries:
        raise CostFunctionError("cost function needs at least one piece")
    for entry in entries:
        if len(entry) != 3:
            raise CostFunctionError(f"piece must be a triple, got {entry!r}")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in entry):
            raise CostFunctionError(f"piece coefficients must be integers: {entry!r}")
        if any(v < 0 for v in entry):
            raise CostFunctionError(f"negative coefficient in piece {entry!r}")
    if entries[0][0] != 1:
        raise CostFunctionError(
            f"first piece must start at load 1, got {entries[0][0]}"
        )
    for prev, cur in zip(entries, entries[1:]):
        if cur[0] <= prev[0]:
            raise CostFunctionError(
                f"piece starts must be strictly increasing, got {prev[0]} then {cur[0]}"
            )
    fn = CostFunction(tuple(entries))  # type: ignore[arg-type]
    for from_load, _, _ in entries[1:]:
        if fn(from_load) < fn(from_load - 1):
            raise CostFunctionError(
                f"cost decreases at load {from_load}: "
                f"{fn(from_load - 1)} -> {fn(from_load)}"
            )
    return fn


def linear(slope: int, intercept: int = 0) -> CostFunction:
    """x -> slope * x + intercept."""
    return validate_pieces([(1, slope, intercept)])


def constant(value: int) -> CostFunction:
    """x -> value."""
    return validate_pieces([(1, 0, value)])


def threshold(bound: int, low: int, high: int) -> CostFunction:
    """``low`` on loads <= bound, ``high`` above; encoded as two flat pieces."""
    return validate_pieces([(1, 0, low), (bound + 1, 0, high)])


ZERO = constant(0)


def kappa(game) -> int:
    """Largest one-step cost any player can incur: max over edges of d_e(n)."""
    return max(fn(game.n) for fn in game.arena.edges.values())
