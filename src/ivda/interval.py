"""Macrodata containers: intervals, boxes, and interval datasets.

An interval [a, b] is equivalently carried as its centre (a + b)/2 and range
b - a; the two views round-trip exactly. A Box pairs a p-vector of intervals
with the latent distribution of each dimension. An IntervalFrame is the n x p
dataset container; it stores raw bounds without judging them, and exposes
``validate`` to report every broken invariant as data rather than aborting.

This module owns ``IntervalFrame``, ``Violation`` and the frame's CSV
reader, ``load_interval_csv``: what the ``distance`` and ``covariance``
commands run. The scalar ``Interval`` and ``Box``, which the published
forms and the barycentre take, load on first access from the module that
``ivda._DEFINED_IN`` names.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path

import numpy as np

from . import _load
from ._tables import _read_table, _refuse_repeated
from ._value import Frozen
from .errors import DataValidationError, DomainError

__all__ = ["Interval", "Box", "IntervalFrame", "Violation"]


def __getattr__(name):
    return _load(__name__, name)


# what a range that does not match its latent breaks, by whether the latent
# is degenerate
_MISMATCH = ("zero range and must use the degenerate latent",
             "a positive range but a degenerate latent")


def _cell_faults(lower, upper, ranges, degenerate):
    """The frame rule: (n, p) masks of the cells with a non-finite bound,
    else lower > upper, else a range that is not zero exactly when the
    column's latent is ``Degenerate`` (``degenerate`` marks those columns).
    A finite range that overflows to inf counts as positive."""
    finite = np.isfinite(lower) & np.isfinite(upper)
    crossed = finite & (lower > upper)
    mismatch = finite & ~crossed & ((ranges == 0.0) != degenerate)
    return ~finite, crossed, mismatch


class Violation(Frozen):
    """One broken data invariant; collected, never raised, by ``validate``."""

    __slots__ = _fields = ("rule", "row", "column", "message")

    def __init__(self, rule, row, column, message):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "message", message)


class IntervalFrame:
    """n x p table of intervals with per-variable latent specifications.

    Bounds are stored as raw (n, p) arrays so malformed input can be loaded
    and audited; use ``validate`` before trusting a frame. Latents may be
    left unset (None) until a fitting step resolves them. The frame rule:
    every bound is finite, lower <= upper, and a range is zero exactly when
    its variable's latent is ``Degenerate``. Every engine refuses a frame
    that breaks it.
    """

    def __init__(self, lower, upper, names, latents=None, labels=None):
        lower = np.array(lower, dtype=float, ndmin=2)
        upper = np.array(upper, dtype=float, ndmin=2)
        if lower.shape != upper.shape:
            raise DomainError("lower and upper bound arrays must have equal shape")
        n, p = lower.shape
        names = tuple(str(x) for x in names)
        if len(names) != p:
            raise DomainError(f"expected {p} variable names, got {len(names)}")
        if len(set(names)) != p:
            raise DomainError("variable names must be unique")
        if latents is None:
            latents = (None,) * p
        latents = tuple(latents)
        if len(latents) != p:
            raise DomainError(f"expected {p} latent entries, got {len(latents)}")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise DomainError(f"expected {n} row labels, got {len(labels)}")
        self._lower = lower
        self._upper = upper
        self._lower.setflags(write=False)
        self._upper.setflags(write=False)
        # read-only, as the frame caches its check against them
        self._names = names
        self._latents = latents
        self._labels = labels

    @property
    def n(self):
        return self._lower.shape[0]

    @property
    def p(self):
        return self._lower.shape[1]

    @property
    def lower(self):
        return self._lower

    @property
    def upper(self):
        return self._upper

    @property
    def names(self):
        return self._names

    @property
    def latents(self):
        return self._latents

    @property
    def labels(self):
        return self._labels

    def centres_ranges(self):
        """(n, p) matrices of centres and ranges; an exact arithmetic split.

        Where the bounds' sum overflows, the centre halves each bound first,
        which gives the same bits wherever the sum is finite. A range that
        overflows is inf. Neither emits a numpy warning.
        """
        lower, upper = self._lower, self._upper
        with np.errstate(over="ignore", invalid="ignore"):
            c = 0.5 * (lower + upper)
            finite = np.isfinite(c)
            if not finite.all():
                c = np.where(finite, c, 0.5 * lower + 0.5 * upper)
            return c, upper - lower

    @property
    def centres(self):
        return self.centres_ranges()[0]

    @property
    def ranges(self):
        return self.centres_ranges()[1]

    def with_latents(self, latents):
        """New frame with latents attached; accepts a mapping by name or a
        full sequence in column order."""
        if isinstance(latents, dict):
            unknown = set(latents) - set(self.names)
            if unknown:
                raise DomainError(f"unknown variables in latent mapping: {sorted(unknown)}")
            resolved = tuple(latents.get(name, current)
                             for name, current in zip(self.names, self.latents))
        else:
            resolved = tuple(latents)
        return IntervalFrame(self._lower, self._upper, self.names,
                             latents=resolved, labels=self.labels)

    def require_latents(self):
        missing = [name for name, lat in zip(self.names, self.latents) if lat is None]
        if missing:
            raise DataValidationError(
                f"latent distribution unspecified for variable(s): {', '.join(missing)}")

    def row_box(self, i):
        """The i-th observation as a Box; requires a valid row and latents."""
        from ._box import Box, Interval

        self.require_latents()
        intervals = tuple(Interval(self._lower[i, j], self._upper[i, j])
                          for j in range(self.p))
        return Box(intervals, self.latents)

    @cached_property
    def _degenerate(self):
        # which columns carry the degenerate latent, found once per frame
        from .latent import Degenerate

        return np.array([isinstance(lat, Degenerate) for lat in self.latents], dtype=bool)

    @cached_property
    def _checked(self):
        # the engines' (c, r), checked once per frame and read-only, as they
        # share it; a refused frame caches nothing, so it raises every time
        c, r = self._check(latents=True)
        c.setflags(write=False)
        r.setflags(write=False)
        return c, r

    def checked_centres_ranges(self, latents=True):
        """``centres_ranges`` of a valid frame: finite, ordered bounds, and
        ranges zero exactly on a ``Degenerate`` latent, as ``row_box`` and
        ``validate`` require. The first bad cell raises a DomainError naming
        its row and variable. ``latents=False`` checks the bounds alone, for
        an estimator that reads no latent: any range may be zero. With
        latents, the arrays are read-only, and each frame checks them once."""
        return self._checked if latents else self._check(latents=False)

    def _check(self, latents):
        if latents:
            self.require_latents()
        c, r = self.centres_ranges()
        # one pass suffices when every range is finite, and zero exactly on a
        # degenerate latent (NaN fails every comparison); else the rule finds
        # the first bad cell, and passes a finite range that overflowed to inf
        ok = (r > 0.0) & (r < np.inf)
        ok = np.where(self._degenerate, r == 0.0, ok) if latents else ok | (r == 0.0)
        if ok.all():
            return c, r
        faults = _cell_faults(self._lower, self._upper, r, self._degenerate)
        for bad, what in zip(faults[:3 if latents else 2],
                             ("a non-finite bound", "lower > upper", None)):
            if np.any(bad):
                i, j = np.argwhere(bad)[0]
                what = what or _MISMATCH[int(self._degenerate[j])]
                raise DomainError(f"row {i}, variable {self.names[j]}: {what}")
        return c, r

    def row_label(self, i):
        return self.labels[i] if self.labels is not None else str(i)

    def validate(self):
        """All broken invariants, as a list of Violations; never raises.

        Each cell with a non-finite or crossed bound gives a ``not-finite``
        or ``order`` Violation, in row order. Then a variable whose valid
        cells mix zero and positive ranges gives ``mixed-zero-range``, and
        any other whose latent breaks the frame rule on some cell gives
        ``degenerate-latent-mismatch``. With every latent set, the list is
        empty exactly when ``checked_centres_ranges`` passes.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            ranges = self._upper - self._lower
        nonfinite, crossed, mismatch = _cell_faults(self._lower, self._upper, ranges,
                                                   self._degenerate)
        out = [Violation("not-finite", i, j,
                         f"non-finite bound at row {i}, variable {self.names[j]}")
               if nonfinite[i, j] else
               Violation("order", i, j, f"lower > upper at row {i}, variable {self.names[j]}")
               for i, j in np.argwhere(nonfinite | crossed).tolist()]
        valid = ~nonfinite & ~crossed
        mixed = np.any(valid & (ranges == 0.0), axis=0) & np.any(valid & (ranges > 0.0), axis=0)
        mismatched = np.any(mismatch, axis=0)
        for j, name in enumerate(self.names):
            if mixed[j]:
                out.append(Violation("mixed-zero-range", None, j,
                                     f"variable {name} mixes zero and positive ranges"))
            elif mismatched[j] and self.latents[j] is not None:
                out.append(Violation(
                    "degenerate-latent-mismatch", None, j,
                    f"variable {name} has positive ranges but a degenerate latent"
                    if self._degenerate[j] else
                    f"zero-range variable {name} must use the degenerate latent"))
        return out


# each column suffix: its encoding (0 bounds, 1 centre and range) and its slot
_SUFFIXES = {".lo": (0, 1), ".hi": (0, 2), ".c": (1, 1), ".r": (1, 2)}


def _parse_interval_header(header, path):
    _refuse_repeated([h.strip() for h in header], path)
    seen = {}           # name -> [mode, first column, second column]
    label_col = None
    for idx, raw in enumerate(header):
        col = raw.strip()
        sfx = next((sfx for sfx in _SUFFIXES if col.endswith(sfx)), None)
        if sfx is None:
            if idx != 0:
                raise DataValidationError(
                    f"{path}: unrecognized column {col!r} (expected .lo/.hi or .c/.r)")
            label_col = idx
            continue
        mode, slot = _SUFFIXES[sfx]
        name = col[:-len(sfx)]
        entry = seen.setdefault(name, [mode, None, None])
        if entry[0] != mode:
            raise DataValidationError(f"{path}: variable {name!r} mixes column encodings")
        entry[slot] = idx
    for name, (_, first, second) in seen.items():
        if first is None or second is None:
            raise DataValidationError(
                f"{path}: variable {name!r} is missing its paired column")
    if not seen:
        raise DataValidationError(f"{path}: no interval columns found")
    # (name, mode, first column, second column), in the order of the first
    return label_col, sorted(((name, *entry) for name, entry in seen.items()),
                             key=lambda item: item[2])


def load_interval_csv(path):
    """Load an interval dataset from CSV.

    Each variable occupies two columns, ``name.lo,name.hi`` (bounds) or
    ``name.c,name.r`` (centre and range), detected per variable from the
    header. An unsuffixed first column is the row label. Out-of-order
    bounds are loaded as-is and surface through ``IntervalFrame.validate``.
    """
    path = Path(path)
    rows = _read_table(path)
    label_col, pairs = _parse_interval_header(next(rows), path)
    lower, upper, labels = [], [], []
    for line, row in rows:
        lows, highs = [], []
        for name, mode, i1, i2 in pairs:
            try:
                v1, v2 = float(row[i1]), float(row[i2])
            except ValueError:
                raise DataValidationError(
                    f"{path}:{line}: cannot parse variable {name!r}") from None
            if mode:
                v1, v2 = v1 - 0.5 * v2, v1 + 0.5 * v2
            lows.append(v1)
            highs.append(v2)
        lower.append(lows)
        upper.append(highs)
        if label_col is not None:
            labels.append(row[label_col])
    if not lower:
        raise DataValidationError(f"{path}: no data rows")
    return IntervalFrame(lower, upper, [name for name, *_ in pairs],
                         labels=None if label_col is None else labels)
