"""Named target catalog for the command line.

Two kinds of target spec are understood:

- "sine-ridge:T" where T is a comma-separated positive integer vector,
  optionally parenthesized: the target sin(pi theta . x)/(4 pi ||theta||_1^2).
- "cosine-sum:PATH" where PATH is a JSON file holding a cosine spectrum
  {dim, atoms: [{omega, mag, phase}, ...]}.
"""

from __future__ import annotations

import json

from .errors import UsageError
from .spectral import (
    SpectralMeasure,
    TargetFunction,
    sine_ridge_measure,
    spectral_representation,
)

__all__ = ["resolve_target", "catalog_entries", "sine_ridge_measure"]


def _parse_theta(text: str) -> tuple:
    """The integers of "1,2" or "(1,)"; sine_ridge_measure checks that they are positive."""
    parts = [p.strip() for p in text.strip().strip("()").split(",")]
    try:
        return tuple(int(part) for part in parts if part)  # "(1,)" has a trailing comma
    except ValueError as exc:
        raise UsageError(f"could not parse integer vector from {text!r}") from exc


def resolve_target(spec: str, s: int, seed: int = 0):
    """Parse a target spec into (TargetFunction, IntegralRepresentation)."""
    if s not in (2, 3):
        raise UsageError(f"order s must be 2 or 3, got {s}")
    if not isinstance(spec, str) or ":" not in spec:
        raise UsageError(
            f"target spec must look like 'sine-ridge:1,1' or 'cosine-sum:file.json', got {spec!r}"
        )
    kind, _, rest = spec.partition(":")
    # the representation first: it refuses a spectrum whose norm overflows
    # before from_measure computes with it
    if kind == "sine-ridge":
        meas = sine_ridge_measure(_parse_theta(rest))
        rep = spectral_representation(meas, s, seed=seed)
    elif kind == "cosine-sum":
        try:
            meas = SpectralMeasure.load(rest)
            rep = spectral_representation(meas, s, seed=seed)
        except OSError as exc:
            raise UsageError(f"could not read measure file {rest}: {exc.strerror}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"could not parse measure file {rest}: {exc}") from exc
        except ValueError as exc:  # the file parsed; a measure check rejected it
            raise UsageError(f"invalid measure file {rest}: {exc}") from exc
    else:
        raise UsageError(f"unknown target kind {kind!r}; run the catalog command for options")
    return TargetFunction.from_measure(meas), rep


def catalog_entries() -> list[dict]:
    return [
        {
            "name": "sine-ridge:T",
            "example": "sine-ridge:1,1",
            "description": "sin(pi T.x)/(4 pi ||T||_1^2) for a positive integer vector T; "
                           "sampled through its one-atom spectrum at order s",
        },
        {
            "name": "cosine-sum:PATH",
            "example": "cosine-sum:measure.json",
            "description": "finite cosine spectrum loaded from JSON "
                           "{dim, atoms: [{omega, mag, phase}]}; sampled at order s",
        },
    ]
