"""Deterministic seeding utilities.

Every random draw in this package comes from one primitive,
``make_generator(seed, index)``: a NumPy ``Generator`` backed by the
Philox 4x64-10 counter-based bit generator, keyed with the 128-bit
value ``seed | index << 64``.  Sample ``i`` of a pass with seed ``s``
draws from stream ``(s, i)``.  Philox is built so that distinct keys
give independent streams without hashing the key (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), and it is
platform-independent: the same key yields the same stream everywhere.
Stream ``(s, 0)`` is the stream of ``Philox(key=s)``, so a one-matrix
call draws what a plain 64-bit key would.  :func:`check_int` is the
integer check that seeds and every other integer field share, and
:func:`check_ints` reads a comma-separated list of them;
:func:`check_real` and :func:`check_str` do the same for reals and strings.
"""

from __future__ import annotations

import numbers

import numpy as np

MASK64 = (1 << 64) - 1

# Recorded in provenance next to every seed this package consumes.
RNG_SCHEME = "philox4x64-10(seed,index)"


def check_int(value: int, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a plain int; ``ValueError`` naming ``name`` unless it is
    a Python or NumPy integer (``bool``, floats and strings are rejected)
    of at least ``low`` and at most ``high``, when given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")
    return value


def check_ints(text: str, name: str, what: str) -> list[int]:
    """The integers of comma-separated ``text`` (blank entries skipped);
    ``ValueError`` naming ``name`` unless there is at least one and none repeats."""
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{name} must be comma-separated integers, got {text!r}") from None
    if not values or len(set(values)) != len(values):
        raise ValueError(f"{name} must name distinct {what}, got {text!r}")
    return values


def check_real(value: float, name: str) -> float:
    """``value`` as a plain float; ``ValueError`` naming ``name`` unless it is
    a Python or NumPy real number (``bool``, strings and other types are
    rejected)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_str(value: str, name: str) -> str:
    """``value``; ``ValueError`` naming ``name`` unless it is a string."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def check_seed(seed: int, name: str = "seed") -> int:
    """Validate a 64-bit unsigned seed and return it as a plain int."""
    seed = check_int(seed, name)
    if not 0 <= seed <= MASK64:
        raise ValueError(f"{name} must fit in 64 unsigned bits, got {seed}")
    return seed


def make_generator(seed: int, index: int) -> np.random.Generator:
    """Philox-backed generator for stream ``index`` under ``seed``."""
    key = check_seed(seed) | check_seed(index, "index") << 64
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(base_seed: int, index: int) -> int:
    """A 64-bit seed nested under ``base_seed``: stream ``(base_seed, index)``'s first word."""
    return int(make_generator(base_seed, index).bit_generator.random_raw())
