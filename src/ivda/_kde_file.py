"""Why ``np.loadtxt`` refused a ``Kde`` sample file. ``ivda.latent`` loads
this only when it does, so no stage of the analyst chain compiles it.
"""

from __future__ import annotations

import numpy as np

from .errors import DataValidationError


def _refused_sample(path, exc):
    """Read the refused file again, line by line, as ``np.loadtxt`` splits
    it: a value that is not a number raises ``DataValidationError`` naming
    the file, the line and the value; a line of more than one value gives a
    two-column array, which ``latent_from_dict`` refuses as it refuses any
    file of more than one column. A value that ``float`` reads and numpy
    does not (``1_000``) is refused with numpy's message ``exc``."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        for number, line in enumerate(fh, 1):
            fields = line.partition("#")[0].split()
            for field in fields:
                try:
                    float(field)
                except ValueError:
                    raise DataValidationError(f"kde sample file {path}, line {number}: "
                                              f"{field!r} is not a number") from None
            if len(fields) > 1:
                return np.empty((1, 2))
    raise DataValidationError(f"kde sample file {path}: {exc}")
