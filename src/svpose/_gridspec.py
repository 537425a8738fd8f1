"""The recipe of an SO(3) grid, importable without numpy.

The CLI checks a run's grid fields with GridSpec before any subcommand
runs, including the ones that never build a grid, so it lives apart
from the numeric code in so3, which re-exports these names.
"""

from dataclasses import dataclass

GENERATOR_IDS = {"super_fibonacci": 1, "random_uniform": 2}
_ID_TO_GENERATOR = {v: k for k, v in GENERATOR_IDS.items()}


@dataclass(frozen=True)
class GridSpec:
    """Recipe that reproduces a grid bit for bit."""

    generator: str
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.generator not in GENERATOR_IDS:
            raise ValueError(f"unknown grid generator {self.generator!r}")
        if self.n < 1:
            raise ValueError("grid size must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("grid seed must fit in an unsigned 64-bit integer")
