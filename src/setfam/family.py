"""Finite set families over an integer point universe.

Points are dense indices ``0 .. universe_size-1``, at most MAX_UNIVERSE of
them, partitioned into *base* points and *extension* points. Sets are stored
as bit masks (one Python int per set). A cell of a chosen subfamily pairs a
signature (character k: membership in its k-th set) with the mask of the
points that carry it. The atom kernel, ``cells``, returns them as one dict
in ascending signature order: it splits the universe one set at a time with
``split_cells``, or reads the signatures off the set rows once splitting
would cost more. ``boolean_atoms`` and the halfplane generator read that
dict, and so does ``columns``, the one table of the family's distinct point
columns by lowest point, from which piercing takes its candidate points and
the exact shatter search its compressed sets; the witness builder refines
its live atoms with ``split_cells``. ``transpose`` is the one bit-matrix
transpose: it joins the rows into one string of digits and reads each
column as a stride slice of it. Every check reads the family through three
primitives: ``_check_subfamily`` for each list of set indices,
``mask_from_points`` for each list of points, and ``point_traces`` for
memberships (``check_atoms``, ``shatter.check_values`` and the witness
verifier), which stays apart from the kernel so that the checks check it.

Two text formats are supported:

* compact incidence -- header ``"m n"`` followed by ``m`` rows of ``n``
  characters in ``{0,1}`` (``/`` may stand in for a newline); every point is
  a base point, and over no points each row is blank;
* structured JSON -- ``{"universe": n, "extension": [...], "sets":
  [{"name": ..., "points": [...]}, ...]}`` with base points defined as the
  complement of the extension; optional keys ``base`` (must partition the
  universe against ``extension``), ``external_target`` (a point set inside
  the extension) and ``generator`` (provenance of a generated instance).

Serialization is canonical: the same family always produces the same bytes.
``json_text`` is the one JSON writer, of structured family files and of
reports, and ``load_json`` the one JSON loader, of both; a syntax error, or
an integer too long to convert, is located by line and column, as is a byte
that ``decode_text`` cannot read as UTF-8.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import FamilyFormatError, ReportFormatError

# The largest universe: gen_witness_rich's at its largest depth. A larger one
# is refused before any mask is built.
MAX_UNIVERSE = 2**21 - 1

# One '0'/'1' character per set of a chosen subfamily, in subfamily order.
Signature = str


class Check(NamedTuple):
    """One replayed report check: its kind, its verdict and what it found."""

    kind: str
    ok: bool
    detail: str


def mask_from_points(points: Iterable[int], universe_size: int) -> int:
    """The bit mask of the points; ValueError names the first point, in
    iteration order, outside the universe.

    OR-ing in one point costs time linear in the universe, so more than 64
    points, all in range, are written as digits of one binary numeral that is
    read once. Fewer, or any out of range, are OR-ed in one at a time."""
    points = list(points)
    if len(points) > 64 and 0 <= min(points) <= max(points) < universe_size:
        digits = bytearray(b"0") * universe_size
        for p in points:
            digits[~p] = 49  # ord("1"); the last digit is point 0
        return int(digits, 2)
    mask = 0
    for p in points:
        if not 0 <= p < universe_size:
            raise ValueError(f"point {p} out of range for a universe of {universe_size} points")
        mask |= 1 << p
    return mask


def points_from_mask(mask: int) -> tuple[int, ...]:
    """The points of the mask, ascending, read off its binary digits."""
    return tuple([p for p, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"])


def canonical_json(obj: Any) -> str:
    """Key-sorted, whitespace-free JSON; used wherever bytes must be stable."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _Record:
    """Equality, repr and pickling by the values of ``__slots__``, in order.

    The result records are named tuples; the two types that define
    ``__len__`` derive from this instead, since a named tuple's ``_make``
    and ``_replace`` rely on ``len``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in zip(self.__slots__, self._values()))})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class SetFamily(_Record):
    """Immutable incidence structure of named sets over a finite universe.

    ``members[i]`` is the bit mask of points of set ``names[i]``; declaration
    order is preserved and every operation in the package is deterministic in
    it. ``extension_mask`` marks the extension points (base points are the
    complement). ``external_target`` optionally records a distinguished point
    set inside the extension, and ``provenance`` a canonical-JSON generator
    record; both round-trip through the structured file format. A family is
    hashable and equal to another with the same field values.
    """

    __slots__ = ("universe_size", "names", "members", "extension_mask", "external_target", "provenance")

    def __init__(
        self,
        universe_size: int,
        names: tuple[str, ...],
        members: tuple[int, ...],
        extension_mask: int = 0,
        external_target: int | None = None,
        provenance: str | None = None,
    ) -> None:
        values = (universe_size, names, members, extension_mask, external_target, provenance)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        if self.universe_size < 0:
            raise ValueError("universe_size must be nonnegative")
        if self.universe_size > MAX_UNIVERSE:
            raise ValueError(f"universe_size must be at most {MAX_UNIVERSE}, got {universe_size}")
        if len(self.names) != len(self.members):
            raise ValueError("names and members must have equal length")
        if len(set(self.names)) != len(self.names):
            dup = min(n for n, k in Counter(self.names).items() if k > 1)
            raise ValueError(f"duplicate set name {dup!r}")
        full = self.universe_mask
        if self.extension_mask & ~full:
            raise ValueError("extension points lie outside the universe")
        for name, mem in zip(self.names, self.members):
            if mem & ~full:
                bad = points_from_mask(mem & ~full)[0]
                raise ValueError(f"set {name!r} contains point {bad}, outside the universe")
        if self.external_target is not None and self.external_target & ~self.extension_mask:
            raise ValueError("external target must lie inside the extension points")

    def __setattr__(self, name: str, *value: Any) -> None:
        raise AttributeError(f"cannot assign or delete field {name!r} of an immutable SetFamily")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._values())

    @property
    def universe_mask(self) -> int:
        return (1 << self.universe_size) - 1

    @property
    def base_mask(self) -> int:
        return self.universe_mask & ~self.extension_mask

    @property
    def num_sets(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def set_points(self, index: int) -> tuple[int, ...]:
        return points_from_mask(self.members[index])

    def base_points(self) -> tuple[int, ...]:
        return points_from_mask(self.base_mask)

    def extension_points(self) -> tuple[int, ...]:
        return points_from_mask(self.extension_mask)

    @classmethod
    def from_points(
        cls,
        universe_size: int,
        sets: Sequence[tuple[str, Iterable[int]]],
        extension: Iterable[int] = (),
        external_target: Iterable[int] | None = None,
        provenance: str | None = None,
    ) -> "SetFamily":
        ext = mask_from_points(extension, universe_size)
        target = None if external_target is None else mask_from_points(external_target, universe_size)
        return cls(
            universe_size,
            tuple(name for name, _ in sets),
            tuple(mask_from_points(pts, universe_size) for _, pts in sets),
            ext,
            target,
            provenance,
        )


def _check_subfamily(family: SetFamily, subfamily: Iterable[int]) -> tuple[int, ...]:
    idxs = tuple(subfamily)
    seen = set()
    for i in idxs:
        if not 0 <= i < family.num_sets:
            raise ValueError(f"set index {i} out of range for a family of {family.num_sets} sets")
        if i in seen:
            raise ValueError(f"set index {i} repeated in subfamily")
        seen.add(i)
    return idxs


def point_signature(family: SetFamily, subfamily: Iterable[int], point: int) -> Signature:
    """Membership trace of one point across the subfamily, in subfamily order."""
    idxs = _check_subfamily(family, subfamily)
    mask_from_points((point,), family.universe_size)
    return "".join("1" if family.members[i] >> point & 1 else "0" for i in idxs)


class AtomDecomposition(_Record):
    """The nonempty signature cells (boolean atoms) of a chosen subfamily.

    ``cells`` maps each realized signature to the bit mask of its points,
    keyed in ascending signature order. The cells are pairwise disjoint and,
    when the zero cell is kept, cover the universe. Decompositions compare
    by value and are not hashable.
    """

    __slots__ = ("subfamily", "cells")

    def __init__(self, subfamily: tuple[int, ...], cells: dict[Signature, int] | None = None) -> None:
        self.subfamily = subfamily
        self.cells = {} if cells is None else cells

    def __len__(self) -> int:
        return len(self.cells)

    def signatures(self) -> tuple[Signature, ...]:
        return tuple(self.cells)

    def cell_points(self, signature: Signature) -> tuple[int, ...]:
        return points_from_mask(self.cells[signature])


def transpose(rows: Sequence[int], width: int) -> Iterator[str]:
    """The bit matrix whose row i is ``rows[i]``, read column by column: for
    each bit position p below ``width``, in order, a binary numeral whose bit
    i is bit p of ``rows[i]``. No rows, or width 0, give no numerals.

    Each row is formatted once as ``width`` digits, lowest bit first, and the
    rows, last first, are joined into one string, so column p is its stride
    slice ``text[p::width]``, which is far cheaper than testing every bit of
    every row."""
    text = "".join([format(row, f"0{width}b")[::-1] for row in reversed(rows)])
    return (text[p::width] for p in range(width if rows else 0))


Cell = tuple[Signature, int]


def split_cells(parts: Iterable[Cell], mem: int) -> list[Cell]:
    """Each cell split by one more set: its points outside the set, then
    those inside, each part kept if nonempty and its signature extended by
    "0" or "1". Cells in ascending signature order stay in that order."""
    out = []
    for sig, mask in parts:
        hi = mask & mem
        if hi != mask:
            out.append((sig + "0", mask ^ hi))
        if hi:
            out.append((sig + "1", hi))
    return out


def cells(family: SetFamily, subfamily: Iterable[int]) -> dict[Signature, int]:
    """The nonempty cells of the universe split by the subfamily, as a dict
    from each signature to its points. Indices are not checked.

    Splitting by one more set visits every cell once, so once the cells times
    the sets left exceed the points, the kernel reads each point's signature
    off the set rows instead: ``transpose`` of the rows in reverse subfamily
    order. Both regimes return the cells in ascending signature order: split
    cells come in it, read ones are sorted."""
    idxs = tuple(subfamily)
    n = family.universe_size
    parts = [("", family.universe_mask)] if n else []
    for k, i in enumerate(idxs):
        if len(parts) * (len(idxs) - k) > n:
            found: dict[Signature, int] = {}
            for p, sig in enumerate(transpose([family.members[j] for j in reversed(idxs)], n)):
                found[sig] = found.get(sig, 0) | 1 << p
            return {sig: found[sig] for sig in sorted(found)}
        parts = split_cells(parts, family.members[i])
    return dict(parts)


def columns(family: SetFamily, order: Sequence[int] | None = None) -> list[tuple[int, Signature]]:
    """The family's distinct point columns: for each, its lowest point and
    its signature over all sets (character k: membership in set ``order[k]``,
    set k by default), in ascending lowest-point order. The zero column,
    points in no set, is included; a universe of no points has no columns."""
    found = cells(family, range(family.num_sets) if order is None else order)
    return sorted(((mask & -mask).bit_length() - 1, sig) for sig, mask in found.items())


def boolean_atoms(
    family: SetFamily, subfamily: Iterable[int], include_zero_cell: bool = True
) -> AtomDecomposition:
    """Group the universe into boolean atoms of the subfamily.

    An atom is a maximal nonempty cell on which membership in every chosen
    set is constant. The all-complements cell (signature with no ``1``) is an
    atom of the closure under complements; ``include_zero_cell=False`` drops
    it, which is the other convention found in the literature.
    """
    idxs = _check_subfamily(family, subfamily)
    found = cells(family, idxs)
    if not include_zero_cell:
        found.pop("0" * len(idxs), None)
    return AtomDecomposition(idxs, found)


def point_traces(family: SetFamily, subfamily: Sequence[int]) -> list[Signature]:
    """Every point's signature on the subfamily, in point order.

    Each set is formatted once as a row of digits, lowest point first, and
    the rows are joined, so point p's trace is the stride slice
    ``text[p::n]``. An empty subfamily gives every point the empty trace, a
    universe of no points no traces. The verifiers read traces here, apart
    from the kernel, so that they check it."""
    n = family.universe_size
    text = "".join([format(family.members[i], f"0{n}b")[::-1] for i in subfamily])
    return [text[p::n] for p in range(n)]


def check_atoms(
    family: SetFamily,
    subfamily: Sequence[int],
    atoms: Sequence[tuple[Signature, Sequence[int]]],
    include_zero_cell: bool,
    atom_count: int,
) -> Check:
    """Re-check listed atoms: cells pairwise disjoint, every point carrying its
    cell's signature, the cells covering the universe, or with the zero cell
    dropped, exactly the union of the subfamily's sets, and then no cell
    empty, no signature listed twice and ``atom_count`` cells listed."""
    kind = "atoms.decomposition-reverifies"
    idxs = _check_subfamily(family, subfamily)
    traces = point_traces(family, idxs)
    union = 0
    for signature, points in atoms:
        mask = mask_from_points(points, family.universe_size)
        if mask & union:
            return Check(kind, False, "cells overlap")
        union |= mask
        for p in points:
            if traces[p] != signature:
                return Check(kind, False, f"point {p} does not match signature {signature}")
    if include_zero_cell and union != family.universe_mask:
        return Check(kind, False, "cells do not cover the universe")
    # The union of the subfamily's sets: the points with a 1 in their trace.
    if not include_zero_cell and union != mask_from_points(
            [p for p, t in enumerate(traces) if "1" in t], family.universe_size):
        return Check(kind, False, "cells do not cover exactly the union of the subfamily's sets")
    if len({signature for signature, _ in atoms}) != len(atoms) or not all(points for _, points in atoms):
        return Check(kind, False, "cells must be nonempty, each with its own signature")
    if atom_count != len(atoms):
        return Check(kind, False, f"atom_count {atom_count} differs from the {len(atoms)} listed atoms")
    return Check(kind, True, "cells are disjoint and signatures match")


# --------------------------------------------------------------------------
# shape of structured input

# Shape tokens for ``check_shape``: an integer naming a set or a point.
SET_INDEX = "set"
POINT = "point"
_TYPE_NAMES = {int: "an integer", str: "a string", bool: "a boolean", dict: "an object", list: "a list"}


def check_shape(value: Any, shape: Any, where: str, family: SetFamily | None = None) -> None:
    """Raise ReportFormatError at the first place ``value`` departs from ``shape``.

    A shape is a JSON type (``int``, ``str``, ``bool``, or ``dict`` for any
    object), ``SET_INDEX`` or ``POINT`` (an integer, in range for ``family``
    when one is given), ``[shape]`` for a list, ``(None, shape)`` for null or
    ``shape``, a frozenset of the strings allowed, or a dict of required keys
    and their shapes. ``where`` is the path of ``value``.
    """
    if isinstance(shape, tuple):
        if value is None:
            return
        shape = shape[1]
    if isinstance(shape, dict):
        check_shape(value, dict, where)
        for key, sub in shape.items():
            if key not in value:
                raise ReportFormatError(f"missing key {key!r}", where=where)
            check_shape(value[key], sub, f"{where}.{key}" if where else key, family)
    elif isinstance(shape, list):
        check_shape(value, list, where)
        for i, item in enumerate(value):
            check_shape(item, shape[0], f"{where}[{i}]", family)
    elif shape in (SET_INDEX, POINT):
        check_shape(value, int, where)
        if family is not None:
            size = family.num_sets if shape == SET_INDEX else family.universe_size
            if not 0 <= value < size:
                raise ReportFormatError(f"{shape} {value} out of range for {size} {shape}s", where=where)
    elif isinstance(shape, frozenset):
        check_shape(value, str, where)
        if value not in shape:
            raise ReportFormatError(f"expected {' or '.join(map(repr, sorted(shape)))}, got {value!r}", where=where)
    elif not isinstance(value, shape) or isinstance(value, bool) != (shape is bool):
        raise ReportFormatError(f"expected {_TYPE_NAMES[shape]}", where=where)


# --------------------------------------------------------------------------
# JSON text: the one writer and the one loader of every file setfam writes or
# reads as JSON, family files and reports alike


def json_text(value: Any, pad: str = "") -> str:
    """Exactly ``json.dumps(value, indent=2, sort_keys=True)``, for a value
    whose dicts have string keys, at indentation ``pad``.

    An indent selects json's pure-Python encoder, one step per item. Here a
    nonempty list or tuple of plain ints, or of strings, is joined in one
    step, and dicts and other lists recurse; every other value goes to
    ``json.dumps``."""
    if value and isinstance(value, (dict, list, tuple)):
        inner = pad + "  "
        if isinstance(value, dict):
            items = [f"{encode_basestring_ascii(key)}: {json_text(value[key], inner)}" for key in sorted(value)]
            return "{\n" + inner + f",\n{inner}".join(items) + f"\n{pad}}}"
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(str, value)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, value)
        else:
            items = [json_text(item, inner) for item in value]
        return "[\n" + inner + f",\n{inner}".join(items) + f"\n{pad}]"
    return json.dumps(value)


def _located(text: str, start: int, line: int = 1) -> dict[str, int]:
    """The line and column of ``text[start]``, counting ``text``'s first line as ``line``."""
    return {"line": line + text.count("\n", 0, start), "column": start - text.rfind("\n", 0, start)}


def decode_text(data: bytes) -> str:
    """``data`` as UTF-8 text; FamilyFormatError locates the first byte that
    is not UTF-8, its column counted in characters."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        raise FamilyFormatError(f"byte 0x{data[exc.start]:02x} is not UTF-8 text",
                                **_located(head, len(head))) from None


# A JSON string literal, or a number: its integer digits, then any fraction
# or exponent, which make it a float. Compiled only on the error path.
_JSON_TOKEN = r'"(?:[^"\\]|\\.)*"|-?(\d+)(\.\d+)?([eE][-+]?\d+)?'


def _long_integer(text: str, line: int = 1) -> FamilyFormatError:
    """The first integer of JSON ``text`` (or of an incidence header) with
    more digits than ``int`` converts from text, ``sys.get_int_max_str_digits()``,
    located; digits in string literals and floats are skipped."""
    limit = sys.get_int_max_str_digits()
    match = next(m for m in re.finditer(_JSON_TOKEN, text) if m[1] and not m[2] and not m[3] and len(m[1]) > limit)
    return FamilyFormatError(f"integer of {len(match[1])} digits exceeds the limit of {limit} digits",
                             **_located(text, match.start(), line))


def load_json(text: str, what: str) -> Any:
    """The value of JSON ``text``; FamilyFormatError gives a syntax error or an
    integer too long to convert its line and column, and names ``what`` if it
    nests too deeply to parse."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from None
    except ValueError:  # the only other fault json.loads raises: an integer past the limit
        raise _long_integer(text) from None
    except RecursionError:
        raise FamilyFormatError(f"{what} nests too deeply to parse") from None


# --------------------------------------------------------------------------
# parsing / serialization


_TOP_KEYS = {"universe", "extension", "base", "sets", "external_target", "generator"}
_SET_KEYS = {"name", "points"}


def parse_family(text: str) -> SetFamily:
    """Parse either supported format, sniffing structured JSON by a leading '{'."""
    if text.startswith("\ufeff"):
        raise FamilyFormatError("a byte order mark starts the text; save it as UTF-8 without one", line=1, column=1)
    if text.lstrip().startswith("{"):
        return family_from_dict(load_json(text, "family file"))
    return _parse_incidence(text)


def _parse_incidence(text: str) -> SetFamily:
    rows: list[tuple[int, str]] = []
    blank = 0  # blank rows after the header
    for lineno, line in enumerate(text.splitlines(), start=1):
        for chunk in line.split("/"):
            chunk = chunk.strip()
            if chunk:
                rows.append((lineno, chunk))
            elif rows:
                blank += 1
    if not rows:
        raise FamilyFormatError("empty family text", line=1)
    header_line, header = rows[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise FamilyFormatError("header must be two integers 'num_sets num_points'", line=header_line)
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise _long_integer(text.splitlines()[header_line - 1], header_line) from None
    if n > MAX_UNIVERSE:
        raise FamilyFormatError(f"universe of {n} points exceeds the largest, {MAX_UNIVERSE}", line=header_line)
    body = rows[1:]
    if n == 0 and not body and blank >= m:
        # A row over no points is blank, and blank rows are skipped above: the
        # header then stands for m empty sets, as many as the blank rows hold.
        return SetFamily(0, tuple(f"S{i}" for i in range(m)), (0,) * m)
    if len(body) != m:
        at = body[-1][0] if body else header_line
        raise FamilyFormatError(f"expected {m} incidence rows, found {len(body)}", line=at)
    names = []
    members = []
    for i, (lineno, row) in enumerate(body):
        if len(row) != n:
            raise FamilyFormatError(
                f"incidence row must have {n} characters, found {len(row)}", line=lineno
            )
        if row.count("0") + row.count("1") != n:
            col = next(col for col, ch in enumerate(row) if ch not in "01")
            raise FamilyFormatError(f"invalid character {row[col]!r} in incidence row", line=lineno, column=col + 1)
        names.append(f"S{i}")
        members.append(int(row[::-1], 2))  # the last digit is point 0
    return SetFamily(n, tuple(names), tuple(members))


def _expect_point_list(value: Any, where: str, universe: int) -> int:
    if not isinstance(value, list) or not all(isinstance(p, int) and not isinstance(p, bool) for p in value):
        raise FamilyFormatError("expected a list of point indices", where=where)
    try:
        return mask_from_points(value, universe)
    except ValueError:
        pos, p = next((pos, p) for pos, p in enumerate(value) if not 0 <= p < universe)
        raise FamilyFormatError(f"point {p} out of range for universe {universe}", where=f"{where}[{pos}]") from None


def family_from_dict(obj: Any) -> SetFamily:
    """Validate and build a family from a structured-format dictionary."""
    if not isinstance(obj, Mapping):
        raise FamilyFormatError("top level must be an object")
    unknown = sorted(set(obj) - _TOP_KEYS)
    if unknown:
        raise FamilyFormatError(f"unknown key {unknown[0]!r}", where="top level")
    if "universe" not in obj or not isinstance(obj["universe"], int) or isinstance(obj["universe"], bool):
        raise FamilyFormatError("'universe' must be an integer point count", where="universe")
    universe = obj["universe"]
    if universe < 0:
        raise FamilyFormatError("'universe' must be nonnegative", where="universe")
    if universe > MAX_UNIVERSE:
        raise FamilyFormatError(f"universe of {universe} points exceeds the largest, {MAX_UNIVERSE}", where="universe")
    ext_mask = _expect_point_list(obj.get("extension", []), "extension", universe)
    if "base" in obj:
        base_mask = _expect_point_list(obj["base"], "base", universe)
        overlap = base_mask & ext_mask
        if overlap:
            raise FamilyFormatError(
                f"base/extension overlap at point {points_from_mask(overlap)[0]}", where="base"
            )
        missing = ((1 << universe) - 1) & ~(base_mask | ext_mask)
        if missing:
            raise FamilyFormatError(
                f"base and extension do not partition the universe; point "
                f"{points_from_mask(missing)[0]} is in neither",
                where="base",
            )
    sets = obj.get("sets")
    if not isinstance(sets, list):
        raise FamilyFormatError("'sets' must be a list", where="sets")
    names: list[str] = []
    members: list[int] = []
    seen: set[str] = set()
    for i, entry in enumerate(sets):
        where = f"sets[{i}]"
        if not isinstance(entry, Mapping):
            raise FamilyFormatError("set entry must be an object", where=where)
        bad = sorted(set(entry) - _SET_KEYS)
        if bad:
            raise FamilyFormatError(f"unknown key {bad[0]!r}", where=where)
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise FamilyFormatError("set entry needs a nonempty 'name'", where=where)
        if name in seen:
            raise FamilyFormatError(f"duplicate set name {name!r}", where=where)
        seen.add(name)
        mask = _expect_point_list(entry.get("points", []), f"{where} ({name!r}).points", universe)
        names.append(name)
        members.append(mask)
    target = None
    if "external_target" in obj:
        target = _expect_point_list(obj["external_target"], "external_target", universe)
        if target & ~ext_mask:
            bad_pt = points_from_mask(target & ~ext_mask)[0]
            raise FamilyFormatError(
                f"external_target point {bad_pt} is not an extension point", where="external_target"
            )
    provenance = None
    if "generator" in obj:
        if not isinstance(obj["generator"], Mapping):
            raise FamilyFormatError("'generator' must be an object", where="generator")
        provenance = canonical_json(obj["generator"])
    return SetFamily(universe, tuple(names), tuple(members), ext_mask, target, provenance)


def family_to_dict(family: SetFamily) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "universe": family.universe_size,
        "extension": list(family.extension_points()),
        "sets": [
            {"name": name, "points": list(points_from_mask(mem))}
            for name, mem in zip(family.names, family.members)
        ],
    }
    if family.external_target is not None:
        obj["external_target"] = list(points_from_mask(family.external_target))
    if family.provenance is not None:
        obj["generator"] = json.loads(family.provenance)
    return obj


def serialize_family(family: SetFamily, fmt: str = "structured") -> str:
    """Canonical text for a family; ``parse_family`` round-trips it exactly.

    The incidence format is lossy (names are regenerated on re-parse) and is
    refused for families that carry extension points or an external target.
    """
    if fmt == "structured":
        return json_text(family_to_dict(family)) + "\n"
    if fmt == "incidence":
        if family.extension_mask or family.external_target is not None:
            raise ValueError("incidence format cannot carry extension points")
        n = family.universe_size
        lines = [f"{family.num_sets} {n}"]
        for mem in family.members:
            lines.append(format(mem, f"0{n}b")[::-1] if n else "")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
