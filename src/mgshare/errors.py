"""Exception hierarchy shared by all toolkit modules."""


class MgshareError(Exception):
    """Base class for all domain errors raised by the toolkit."""


class DisconnectedGraphError(MgshareError):
    """Communication graph is not connected."""


class NetworkDataError(MgshareError):
    """Invalid or inconsistent electrical network data."""


class ScenarioFormatError(MgshareError):
    """Scenario file failed to parse or validate."""


class ConvergenceError(MgshareError):
    """The equilibrium Newton solve did not converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SimulationError(MgshareError):
    """Time-domain integration failed."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time
