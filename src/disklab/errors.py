"""Exception taxonomy shared across the package."""


class DomainError(ValueError):
    """A precondition on an argument's mathematical domain was violated."""


class SingularIntegrandError(ArithmeticError):
    """An integrand evaluated to a non-finite value at a quadrature node."""


class SingularPointError(ValueError):
    """A weight was evaluated at one of its singular points."""


class DegenerateWeightError(ValueError):
    """A weight with zero mass cannot be normalized."""


class NotWeaklyMultiplicativeError(ValueError):
    """The constant coefficient of a point distribution is not 0 or 1."""


class InconsistentTableError(ValueError):
    """A coefficient table has vanishing constant term but nonzero entries."""


class NotDbrWeightError(ValueError):
    """The weight's induced moment table is not rank one."""


class DegenerateNodeSetError(ValueError):
    """A kernel Gram matrix is numerically singular."""


class WeightSpecError(ValueError):
    """A weight specification string could not be parsed."""
