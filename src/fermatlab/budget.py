"""Size budget shared by every module that materializes exact big integers.

The budget is a maximum bit width (default 65536, so moduli up to F_16 are
constructible and unit powers up to exponent 2**16 stay exact).  It can be
overridden through the ``FERMATLAB_MAX_BITS`` environment variable.
"""

from __future__ import annotations

import os

DEFAULT_MAX_BITS = 65536
ENV_MAX_BITS = "FERMATLAB_MAX_BITS"


class BudgetExceededError(Exception):
    """A computation would materialize more bits than the configured budget."""


def max_bits() -> int:
    """Current bit budget; reads the environment override on every call."""
    raw = os.environ.get(ENV_MAX_BITS)
    if raw is None:
        return DEFAULT_MAX_BITS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_BITS} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{ENV_MAX_BITS} must be positive, got {value}")
    return value


def check_pow2_bits(log2_bits: int, what: str) -> None:
    """Raise BudgetExceededError if 2**log2_bits bits exceed the budget; never materializes the power."""
    limit = max_bits()
    if log2_bits >= limit.bit_length() or (1 << log2_bits) > limit:
        raise BudgetExceededError(f"{what} needs 2**{log2_bits} bits, budget is {limit}")
