"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-range input: bad vertex, ground mismatch, bad file."""


class StructureViolationError(Exception):
    """A set of graphs has no unique minimum or maximum under inclusion, so
    it cannot be ordered as a lattice.

    This is never masked: if it fires on a covered-set lattice it falsifies
    the structural assumption the coefficients rely on, so callers must see it.
    """


class CapExceededError(Exception):
    """A safety cap on an exponential-size computation was exceeded."""
