"""Exception types shared across the package."""


class NonholoError(Exception):
    """Base class for errors raised by this package."""


class DomainError(NonholoError):
    """Evaluation requested outside the admissible domain."""


class DegeneracyError(NonholoError):
    """A denominator that must stay positive has (numerically) collapsed."""


class ConsistencyError(NonholoError):
    """Arguments that must describe the same point/state disagree."""


class ConfigError(NonholoError):
    """Bad run configuration. ``pointer`` is a JSON pointer to the offender."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer

    def __str__(self) -> str:
        if self.pointer:
            return f"{self.args[0]} (at {self.pointer!r})"
        return str(self.args[0])


class GridError(ValueError):
    """A (delta, h) grid that ``momenta.grid_half`` refuses; ``param`` names the parameter at fault."""

    def __init__(self, message: str, param: str):
        super().__init__(message)
        self.param = param
