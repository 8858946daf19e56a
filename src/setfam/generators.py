"""Reproducible instance generators.

Every generator is a pure function of its parameters and a 64-bit seed: the
randomness comes from the package's portable splitmix64 stream and the
halfplane geometry is done in exact rational arithmetic, so instances are
bit-identical across platforms. Each family carries a ``generator``
provenance record that survives serialization.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .errors import GenerationError
from .family import MAX_UNIVERSE, SetFamily, canonical_json, cells, transpose
from .rng import SplitMix64, row_lanes

if TYPE_CHECKING:  # fractions loads only on the halfplane path, in _sample_lines
    from fractions import Fraction


class GeneratorSpec(NamedTuple):
    """What produced a family: kind, kind-specific sizes, and the seed."""

    kind: str
    parameters: tuple[tuple[str, int | float], ...]
    seed: int

    def provenance(self) -> str:
        return canonical_json(
            {"kind": self.kind, "parameters": dict(self.parameters), "seed": self.seed}
        )


def gen_intervals(count: int, universe_size: int, seed: int) -> SetFamily:
    """Random integer intervals (inclusive point ranges); all points base.

    Any n of them induce at most 2n+1 atoms on the line, so these families
    populate the linear-growth regime.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if universe_size < 2 * count:
        raise ValueError("universe_size must be at least 2*count")
    if universe_size > MAX_UNIVERSE:
        raise ValueError(f"universe_size must be at most {MAX_UNIVERSE}, got {universe_size}")
    rng = SplitMix64(seed)
    masks = []
    for _ in range(count):
        a = rng.below(universe_size)
        b = rng.below(universe_size)
        lo, hi = (a, b) if a <= b else (b, a)
        masks.append((2 << hi) - (1 << lo))  # the points lo..hi
    spec = GeneratorSpec("intervals", (("count", count), ("universe_size", universe_size)), seed)
    names = tuple(f"I{i}" for i in range(count))
    return SetFamily(universe_size, names, tuple(masks), provenance=spec.provenance())


# --- halfplanes below lines over a square grid ----------------------------

_DEFAULT_ATTEMPTS = 400


def _sample_lines(rng: SplitMix64, count: int, side: int) -> list[tuple[Fraction, Fraction]]:
    from fractions import Fraction

    # Tangents to a downward parabola with apex at the grid center, at
    # increasing abscissas a strictly inside (0.1, 0.9)*span, so no two
    # slopes are equal. Tangents at a and b cross at x = (a+b)/2 and
    # y = mid - (a-mid)(b-mid)/width, both strictly inside (0.1, 0.9)*span,
    # and no point of the plane lies on three tangents of a parabola.
    span = side - 1
    mid = Fraction(span, 2)
    width = Fraction(2 * span, 5)
    lines = []
    for i in range(count):
        jitter = Fraction(200 + rng.below(601), 1000)  # in [0.2, 0.8]
        x0 = span * (Fraction(1, 10) + Fraction(4, 5) * (i + jitter) / count)
        slope = -2 * (x0 - mid) / width
        y0 = mid - (x0 - mid) ** 2 / width
        lines.append((slope, y0 - slope * x0))
    return lines


def _below_mask(slope: Fraction, intercept: Fraction, side: int) -> int | None:
    # One exact pass over the grid columns: a line through a grid point is
    # rejected (None); otherwise each column contributes the run of rows
    # strictly below the line, and the runs are transposed into rows.
    runs = []
    for x in range(side):
        y = slope * x + intercept
        if y.denominator == 1 and 0 <= y.numerator < side:
            return None
        runs.append((1 << max(0, min(math.floor(y) + 1, side))) - 1)
    return int("".join(reversed(list(transpose(runs, side)))), 2)


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
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 3 <= grid_side <= MAX_GRID_SIDE:
        raise ValueError(f"grid_side must be between 3 and {MAX_GRID_SIDE}, got {grid_side}")
    want = 1 + count + count * (count - 1) // 2
    if want > grid_side * grid_side:
        raise ValueError(f"count {count} makes {want} cells, each needing a grid point; "
                         f"grid_side must be at least {math.isqrt(want - 1) + 1}, got {grid_side}")
    rng = SplitMix64(seed)
    spec = GeneratorSpec("halfplane_grid", (("count", count), ("grid_side", grid_side)), seed)
    for _ in range(attempts):
        masks = [_below_mask(a, b, grid_side) for a, b in _sample_lines(rng, count, grid_side)]
        if None in masks:
            continue
        family = SetFamily(
            grid_side * grid_side,
            tuple(f"H{i}" for i in range(count)),
            tuple(masks),
            provenance=spec.provenance(),
        )
        if len(cells(family, range(count))) == want:
            return family
    raise GenerationError(
        f"resampling budget exhausted after {attempts} attempts; use a finer grid"
    )


# 2**(depth+1) - 1 points: MAX_UNIVERSE at the largest depth.
MAX_WITNESS_DEPTH = 20


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
    columns = [0] * universe
    for point, column in zip(label, chain(range(1, n_base + 1), range(n_ext))):
        columns[point] = column
    masks = tuple(int(digits, 2) for digits in transpose(columns, depth))
    extension = (1 << universe) - (1 << n_base)
    spec = GeneratorSpec("witness_rich", (("depth", depth),), seed)
    names = tuple(f"S{k}" for k in range(1, depth + 1))
    family = SetFamily(universe, names, masks, extension, extension, spec.provenance())
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
    if count < 1:
        raise ValueError("count must be at least 1")
    if universe_size < 1:
        raise ValueError("universe_size must be at least 1")
    if universe_size > MAX_UNIVERSE:
        raise ValueError(f"universe_size must be at most {MAX_UNIVERSE}, got {universe_size}")
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
    spec = GeneratorSpec(
        "random",
        (("count", count), ("density", density), ("universe_size", universe_size)),
        seed,
    )
    names = tuple(f"R{i}" for i in range(count))
    return SetFamily(universe_size, names, tuple(masks), provenance=spec.provenance())
