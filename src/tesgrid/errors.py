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
    """Scenario is syntactically fine but cannot be run as configured."""


class UnknownProperty(TesgridError):
    pass


class UnknownTarget(TesgridError):
    pass


class NotSwitchable(TesgridError):
    pass


class SolverDivergence(TesgridError):
    """Carries the worst residual (pu) and the node where it was."""

    def __init__(self, message: str, worst_residual: float, node: str):
        super().__init__(message)
        self.worst_residual = worst_residual
        self.node = node


class MissingPlayerData(TesgridError):
    pass


class NonMonotonicTime(TesgridError):
    pass


class MalformedRow(TesgridError):
    pass


class PriceCapViolation(TesgridError):
    pass


class BadQuantity(TesgridError):
    """A bid quantity that is NaN or negative."""


class StalePeriod(TesgridError):
    pass


class EmptyWindow(TesgridError):
    pass


class IoFailure(TesgridError):
    pass
