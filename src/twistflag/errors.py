"""Exception hierarchy shared by all modules."""


class TwistflagError(Exception):
    """Base class for all package errors."""


class BudgetExceeded(TwistflagError):
    """An enumeration hit its configured element or length budget."""


class NotComparable(TwistflagError):
    """The two elements are not related in the order being queried."""


class AmbiguousMinimum(TwistflagError):
    """No unique Bruhat-minimal witness was found; internal consistency failure."""


class IncomparablePair(TwistflagError):
    """Neither s_i*w <=J w nor w <=J s_i*w holds; signals a bug upstream."""


class NonReducedWord(TwistflagError):
    """A word that was required to be reduced is not."""


class NotLeq(TwistflagError):
    """Bruhat comparison required by a precondition fails."""


class MissingReflection(TwistflagError):
    """A reflection order does not cover a reflection it must compare."""


class DecompositionFails(TwistflagError):
    """A triangular factorization does not exist (vanishing minor)."""


class PatternViolation(TwistflagError):
    """A matrix fails a root-support pattern it was asserted to satisfy."""


class NotMember(TwistflagError):
    """A triple fails the double-flag membership condition."""


class BoundaryError(TwistflagError):
    """Consecutive boundary matrices do not compose to zero."""


class StratumMismatch(TwistflagError):
    """A matrix lies in a different stratum or cell than it was built for."""


class Inconclusive(TwistflagError):
    """The check could not be completed within its budget; not a failure."""
