"""Exception types shared across the package."""

from __future__ import annotations


class FileFormatError(ValueError):
    """Malformed coloring or partition file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SizeGuardError(ValueError):
    """An instance exceeds the size guard of an exact or exhaustive routine."""


class ConstructionDefect(RuntimeError):
    """A partition producer failed the check of its own output: `solve`
    (the exact witness), `partition_complete` (the constructive partition)
    or `extremal_partition` (the canonical coloring's optimal partition).
    Each checks its partition with is_partition_valid, which reads every
    tree edge's color from the coloring at its (u, v) pair.

    The serialized instance is attached so the failure can be reproduced
    from a single coloring file.
    """

    def __init__(self, message: str, instance_text: str | None = None):
        super().__init__(message)
        self.instance_text = instance_text
