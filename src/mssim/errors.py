"""Exceptions shared across the simulation modules."""


class DegenerateSampleError(ValueError):
    """A statistic is undefined because an input sample has zero variance."""


class HorizonError(ValueError):
    """A stability index is undefined, or leaves (0, 1), on the requested horizon."""
