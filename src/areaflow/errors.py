"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Bad scenario/CLI configuration (wrong keys, CFL violation, ...)."""


class HypothesisError(ValueError):
    """Inputs violate the hypotheses an inequality or identity needs."""


class NotAreaDecreasingError(HypothesisError):
    """A spectrum has a pair product lambda_i*lambda_j >= 1 (up to guard)."""


class DivergenceError(RuntimeError):
    """A flow produced non-finite values."""


class GraphicalBreakdownError(DivergenceError):
    """The equivariant profile stopped being graphical (|rho'| blow-up)."""
