"""Reproducible instance generators.

Every generator is a pure function of its parameters and a 64-bit seed: the
randomness comes from the package's portable splitmix64 stream and the
halfplane geometry is exact integer arithmetic (each line over one common
denominator), so instances are bit-identical across platforms. Sets are
built from whole rows, runs or bit planes, never point by point. Each family
carries a ``generator`` provenance record that survives serialization.
One function, ``_family``, builds every generated family, and one helper,
``_check_size``, refuses a size before anything is drawn.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain

from .errors import GenerationError
from .family import MAX_UNIVERSE, SetFamily, canonical_json, cells
from .rng import SplitMix64, row_lanes

# 2**(depth+1) - 1 points: MAX_UNIVERSE at the largest depth.
MAX_WITNESS_DEPTH = 20

# Sets times points of the largest family generated, gen_witness_rich at
# MAX_WITNESS_DEPTH: no generator builds a larger one.
MAX_INCIDENCES = MAX_WITNESS_DEPTH * MAX_UNIVERSE


def _check_size(count: int, universe_size: int, *faults: tuple[bool, str]) -> None:
    """Raise ValueError on the first fault, before anything is drawn: ``count``
    below 1, then the generator's own ``(fault, message)`` pairs in order,
    then a universe above MAX_UNIVERSE, then more than MAX_INCIDENCES sets
    times points."""
    incidences = count * universe_size
    for fault, message in (
        (count < 1, "count must be at least 1"),
        *faults,
        (universe_size > MAX_UNIVERSE, f"universe_size must be at most {MAX_UNIVERSE}, got {universe_size}"),
        (incidences > MAX_INCIDENCES, f"count {count} times {universe_size} points makes {incidences}"
                                      f" incidences; a generated family holds at most {MAX_INCIDENCES}"),
    ):
        if fault:
            raise ValueError(message)


def _family(kind: str, parameters: dict, seed: int, universe_size: int, masks, prefix: str,
            first: int = 0, extension: int = 0) -> SetFamily:
    """A generated family: set i named ``prefix`` + (``first`` + i), the
    ``extension`` points (if any) also its external target, and the
    ``generator`` provenance of ``kind``, its ``parameters`` and ``seed``."""
    names = tuple(f"{prefix}{i}" for i in range(first, first + len(masks)))
    provenance = canonical_json({"kind": kind, "parameters": parameters, "seed": seed})
    return SetFamily(universe_size, names, tuple(masks), extension, extension or None, provenance)


def gen_intervals(count: int, universe_size: int, seed: int) -> SetFamily:
    """Random integer intervals (inclusive point ranges); all points base.

    Any n of them induce at most 2n+1 atoms on the line, so these families
    populate the linear-growth regime.
    """
    _check_size(count, universe_size, (universe_size < 2 * count, "universe_size must be at least 2*count"))
    rng = SplitMix64(seed)
    masks = []
    for _ in range(count):
        a = rng.below(universe_size)
        b = rng.below(universe_size)
        lo, hi = (a, b) if a <= b else (b, a)
        masks.append((2 << hi) - (1 << lo))  # the points lo..hi
    parameters = {"count": count, "universe_size": universe_size}
    return _family("intervals", parameters, seed, universe_size, masks, "I")


# --- halfplanes below lines over a square grid ----------------------------

_DEFAULT_ATTEMPTS = 400


def _sample_lines(rng: SplitMix64, count: int, side: int) -> list[tuple[int, int, int]]:
    # Tangents to a downward parabola with apex at the grid center, at
    # increasing abscissas a strictly inside (0.1, 0.9)*span, so no two
    # slopes are equal. Tangents at a and b cross at x = (a+b)/2 and
    # y = mid - (a-mid)(b-mid)/width, both strictly inside (0.1, 0.9)*span,
    # and no point of the plane lies on three tangents of a parabola.
    #
    # With mid = span/2, width = 2*span/5 and a jitter of (200 + r)/1000,
    # r drawn below 601, the tangent point is x0 = span*(1/10 + 4/5*(i +
    # jitter)/count) = X/D with D = 10000*count and X = span*(1000*count +
    # 8*(1000*i + 200 + r)). With U = X - span*D/2 = D*(x0 - mid), the
    # tangent is y = (a*x + b)/q with a = -10*U*D, b = span**2*D**2 - 5*U**2
    # + 10*U*X and q = 2*span*D**2: exact, in integers.
    span = side - 1
    d = 10000 * count
    q = 2 * span * d * d
    lines = []
    for i in range(count):
        x0d = span * (1000 * count + 8 * (1000 * i + 200 + rng.below(601)))
        u = x0d - span * d // 2
        lines.append((-10 * u * d, span * span * d * d - 5 * u * u + 10 * u * x0d, q))
    return lines


def _below_mask(a: int, b: int, q: int, side: int) -> int | None:
    # One exact pass over the grid rows: a line through a grid point is
    # rejected (None); otherwise row r holds the columns x where the line
    # y = (a*x + b) / q is at or above r. The line is monotone, so for a < 0
    # these are the prefix x <= (b - r*q) / -a. A rising line (a > 0) is
    # taken as its mirror image x -> side - 1 - x, whose rows read the other
    # way round, and a level one (a = 0) holds every column or none.
    mirror = a > 0
    if mirror:
        a, b = -a, b + a * (side - 1)
    rows = []
    for r in range(side):
        if a:
            x, rem = divmod(b - r * q, -a)  # the last column in the row
        else:
            x, rem = side - 1 if b >= r * q else -1, b - r * q
        if rem == 0 and 0 <= x < side:
            return None
        width = max(0, min(x + 1, side))
        ones, zeros = "1" * width, "0" * (side - width)
        rows.append(ones + zeros if mirror else zeros + ones)
    return int("".join(reversed(rows)), 2)


# 1,448**2 = 2,096,704 points, just under MAX_UNIVERSE.
MAX_GRID_SIDE = 1448


def gen_halfplane_grid(
    count: int, grid_side: int, seed: int, attempts: int = _DEFAULT_ATTEMPTS
) -> SetFamily:
    """Points strictly below sampled lines over a grid, in general position.

    The universe is the grid in row-major order (point = row*side + column).
    The lines are tangents to one parabola at distinct abscissas in the
    middle eight tenths of the grid, so by construction no two are parallel,
    every pair crosses strictly inside the grid, and no three meet. Two
    checks reject the rest: a sample is accepted only when no line passes
    through a grid point and every cell of the arrangement catches a grid
    point, i.e. the atom count equals 1 + n + n(n-1)/2. Accepted instances
    therefore meet that closed form at every subfamily size. Rejection
    resamples from the same stream, up to ``attempts`` times. A grid side
    above MAX_GRID_SIDE, or one with fewer points than the closed form has
    cells, raises ValueError before anything is sampled.
    """
    want = 1 + count + count * (count - 1) // 2  # 1 + n(n+1)/2 >= 1 for any integer n: isqrt stays defined
    _check_size(
        count, grid_side * grid_side,
        (not 3 <= grid_side <= MAX_GRID_SIDE, f"grid_side must be between 3 and {MAX_GRID_SIDE}, got {grid_side}"),
        (want > grid_side * grid_side, f"count {count} makes {want} cells, each needing a grid point; "
                                       f"grid_side must be at least {math.isqrt(want - 1) + 1}, got {grid_side}"),
    )
    rng = SplitMix64(seed)
    parameters = {"count": count, "grid_side": grid_side}
    for _ in range(attempts):
        masks = [_below_mask(*line, grid_side) for line in _sample_lines(rng, count, grid_side)]
        if None in masks:
            continue
        family = _family("halfplane_grid", parameters, seed, grid_side * grid_side, masks, "H")
        if len(cells(family, range(count))) == want:
            return family
    raise GenerationError(
        f"resampling budget exhausted after {attempts} attempts; use a finer grid"
    )


def _bit_digits(bit: int) -> bytes:
    """The translate table from a byte to "1" if its bit ``bit`` is set, else "0"."""
    return (b"0" * (1 << bit) + b"1" * (1 << bit)) * (128 >> bit)


def gen_witness_rich(depth: int, seed: int) -> tuple[SetFamily, tuple[int, ...]]:
    """Family plus external target on which the witness chain reaches ``depth``.

    The target has 2**depth extension points and set k splits every dyadic
    block of the target in half (membership follows bit k-1 of the target
    point's rank). Set k additionally carries one fresh base point for each
    membership pattern over the earlier sets, so at every step each live atom
    holds a base point of the next set. Carrier points of step k keep labels
    below those of later steps -- the probe picks then always land on the
    current step's own carriers, which no later set contains -- and the seed
    shuffles labels inside each carrier block and inside the target. A depth
    above MAX_WITNESS_DEPTH raises ValueError before anything is allocated.
    """
    if not 1 <= depth <= MAX_WITNESS_DEPTH:
        raise ValueError(f"depth must be between 1 and {MAX_WITNESS_DEPTH}, got {depth}")
    n_ext = 1 << depth
    n_base = n_ext - 1
    universe = n_base + n_ext
    rng = SplitMix64(seed)
    label = list(range(universe))
    start = 0
    for block in [1 << (k - 1) for k in range(1, depth + 1)] + [n_ext]:
        chunk = label[start : start + block]
        rng.shuffle(chunk)
        label[start : start + block] = chunk
        start += block

    # Each point's membership column over the sets, bit k-1 for set k, has a
    # closed form: carrier a (pattern a + 1 - 2**(k-1) of step k) has column
    # a + 1, and target rank r has column r. The shuffle permutes labels
    # only inside blocks, so the target is the last 2**depth labels.
    columns = array("L", [0]) * universe
    for point, column in zip(label, chain(range(1, n_base + 1), range(n_ext))):
        columns[point] = column
    # Set k is bit plane k-1 of the columns: byte (k-1) // 8 of every column,
    # one bytes object for all points, read as digits by one translate.
    if sys.byteorder == "big":
        columns.byteswap()
    raw, size = columns.tobytes(), columns.itemsize
    masks = tuple(
        int(raw[bit // 8 :: size].translate(_bit_digits(bit % 8))[::-1], 2) for bit in range(depth)
    )
    extension = (1 << universe) - (1 << n_base)
    family = _family("witness_rich", {"depth": depth}, seed, universe, masks, "S", 1, extension)
    return family, tuple(range(n_base, universe))


def gen_random(
    count: int,
    universe_size: int,
    density: float,
    seed: int,
    ensure_nonempty: bool = True,
) -> SetFamily:
    """Independent membership coin flips at the given density; all points base.

    Each set is one row of ``universe_size`` flips, bit p for point p, drawn
    at once with ``SplitMix64.chance_row``. With ``ensure_nonempty`` (the
    default) a set that comes out empty is redrawn as a whole row from the
    same stream; switch it off to allow empty sets, which the piercing
    solvers reject by design.
    """
    _check_size(count, universe_size, (universe_size < 1, "universe_size must be at least 1"))
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    threshold = int(density * 2**64)
    rng = SplitMix64(seed)
    lanes = row_lanes(universe_size)
    masks = []
    for _ in range(count):
        for _ in range(1000):
            mask = rng.chance_row(universe_size, threshold, lanes)
            if mask or not ensure_nonempty:
                break
        else:
            raise GenerationError(f"could not draw a nonempty set at density {density}")
        masks.append(mask)
    parameters = {"count": count, "density": density, "universe_size": universe_size}
    return _family("random", parameters, seed, universe_size, masks, "R")
