"""Exception types shared across the package."""


class CausalFieldsError(Exception):
    """Base class for all errors raised by this package."""


# -- causal orders -----------------------------------------------------------

class DuplicateEvent(CausalFieldsError):
    pass


class CycleDetected(CausalFieldsError):
    pass


class UnknownEvent(CausalFieldsError):
    pass


class UnboundedQuery(CausalFieldsError):
    """An operation on an infinite order needs an explicit window."""


class InfinitePreimage(CausalFieldsError):
    pass


class InvalidMorphism(CausalFieldsError):
    pass


# -- slices and slice categories ---------------------------------------------

class NotSeparated(CausalFieldsError):
    pass


class NotInCategory(CausalFieldsError):
    pass


class InvalidFoliation(CausalFieldsError):
    pass


class NotARegionOfC(CausalFieldsError):
    pass


class NotReversible(CausalFieldsError):
    pass


class NotCauchy(CausalFieldsError):
    pass


class NonEnumerableRegion(CausalFieldsError):
    pass


# -- process backends ---------------------------------------------------------

class BackendMismatch(CausalFieldsError):
    pass


class ShapeMismatch(CausalFieldsError):
    pass


class BadFactorIndex(CausalFieldsError):
    pass


class NotUnitary(CausalFieldsError):
    pass


class NotStochastic(CausalFieldsError):
    pass


class NotFinite(CausalFieldsError):
    """A matrix or state holds a NaN or an infinite entry."""


# -- cellular automata ---------------------------------------------------------

class NotSubset(CausalFieldsError):
    pass


class WrongPredecessorSet(CausalFieldsError):
    pass


class NegativeTimeGap(CausalFieldsError):
    pass


class NotInvertible(CausalFieldsError):
    pass


class NotAReversal(CausalFieldsError):
    pass


# -- cli ------------------------------------------------------------------------

class BadParams(CausalFieldsError):
    pass
