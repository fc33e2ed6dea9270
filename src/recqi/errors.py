"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed text input.

    ``position`` is the character index of the offending spot when the input
    is a single token, or ``None`` for structural problems (bad JSON shape,
    ragged CSV, unknown fields).
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class DegeneracyError(ArithmeticError):
    """A J-fraction extraction ran into a vanishing Hankel determinant.

    Raised by :func:`recqi.jacobi.jfraction_from_moments`; ``level`` is the
    order of the first vanishing determinant, the 1x1 leading block being
    level 1.
    """

    def __init__(self, message: str, level: int):
        super().__init__(message)
        self.level = level
