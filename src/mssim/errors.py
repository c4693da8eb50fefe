"""Exceptions shared across the simulation modules."""


class DegenerateSampleError(ValueError):
    """A statistic is undefined because an input sample has zero variance."""
