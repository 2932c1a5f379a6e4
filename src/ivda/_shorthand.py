"""The latent shorthand that ``--latents`` may give instead of a JSON file,
as ``triangular:0`` or ``beta:0.44,2.15``. ``ivda._cmd_measures`` loads it
only when a shorthand is given, so no stage of the analyst chain does.
"""

from __future__ import annotations

from .errors import DomainError

# short names for three families; any other shorthand is a family's tag
_ALIASES = {"invtriangular": "inverted_triangular", "truncnormal": "truncated_normal",
            "beta": "shifted_beta"}


def _parse_latent_shorthand(text):
    """Parse 'triangular:0', 'beta:0.44,2.15', 'uniform', ... into a dict.

    The parameters are the family's fields in order; a kde needs a sample
    file, so it has no shorthand.
    """
    from .latent import Kde, _family

    name, _, params = text.partition(":")
    name = name.strip().lower()
    family = _ALIASES.get(name, name)
    cls = _family(family)
    if cls is None or cls is Kde:
        raise DomainError(f"unknown latent family shorthand {name!r}")
    keys = cls._fields
    spec = {"family": family}
    if params:
        values = [v for v in params.split(",") if v.strip()]
        if len(values) > len(keys):
            raise DomainError(f"too many parameters for latent family {name!r}")
        for key, value in zip(keys, values):
            try:
                spec[key] = float(value)
            except ValueError:
                raise DomainError(
                    f"latent family {name!r}: parameter {value!r} is not a number") from None
    return spec
