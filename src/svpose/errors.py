"""Exception types shared across the package.

The CLI maps these onto exit codes: WorkerDiedError -> 1, OSError -> 2,
FormatError -> 3, ConsistencyError -> 4. Plain ValueError covers bad
arguments.
"""


class WorkerDiedError(RuntimeError):
    """A worker process of a parallel solve died, or could not pass back why its file failed."""


class FormatError(ValueError):
    """A file does not match its declared binary or JSON layout."""


class CorruptTableError(FormatError):
    """An energy table file is truncated or internally inconsistent."""


class ConsistencyError(ValueError):
    """Inputs disagree with each other (id mismatches, shape mismatches)."""


class DegenerateGeometryError(ValueError):
    """Camera geometry does not determine the requested quantity."""


class DegenerateScaleError(DegenerateGeometryError):
    """The scene scale is undefined (first camera at the look-at point)."""


class DegenerateAlignmentError(ValueError):
    """An alignment problem is rank deficient or has no valid solution."""


class OrientationFlipError(DegenerateAlignmentError):
    """A least-squares alignment produced a non-positive scale."""
