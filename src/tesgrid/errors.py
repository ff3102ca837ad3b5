"""Exception types shared across the simulator."""


class TesgridError(Exception):
    pass


class ParseError(TesgridError):
    """Raised on malformed scenario text; carries 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ConfigError(TesgridError):
    """An input file the scenario names is unusable; carries the report line
    it makes: the file, the message and the code (`BAD_RANGE` for a player
    value out of its property's range)."""

    def __init__(self, location: str, message: str, code: str = "BAD_FILE"):
        super().__init__(f"{location}: {message}")
        self.location, self.message, self.code = location, message, code


class SolverDivergence(TesgridError):
    """Carries the worst residual (pu) and the node where it was."""

    def __init__(self, message: str, worst_residual: float, node: str):
        super().__init__(message)
        self.worst_residual = worst_residual
        self.node = node


class PriceCapViolation(TesgridError):
    pass


class BadQuantity(TesgridError):
    """A bid quantity that is NaN or negative."""


class StalePeriod(TesgridError):
    pass


class IoFailure(TesgridError):
    """An output file or directory cannot be written."""
