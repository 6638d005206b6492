"""Exception types raised across the library."""


class EuclidMinError(Exception):
    """Base class for all library errors."""


# -- field construction ------------------------------------------------------

class NonMonic(EuclidMinError):
    pass


class UnsupportedDegree(EuclidMinError):
    pass


class ReduciblePolynomial(EuclidMinError):
    pass


class ZeroIdeal(EuclidMinError):
    pass


class PrecisionUnreachable(EuclidMinError):
    pass


# -- places / S-units --------------------------------------------------------

class NotPrime(EuclidMinError):
    pass


class IndexDivisor(EuclidMinError):
    pass


class ZeroElement(EuclidMinError):
    pass


class NotAnSUnit(EuclidMinError):
    pass


class RankDeficient(EuclidMinError):
    pass


class RankUndetermined(EuclidMinError):
    pass


class SearchExhausted(EuclidMinError):
    pass


# -- minima ------------------------------------------------------------------

class UnverifiedUnits(EuclidMinError):
    pass


# -- forms -------------------------------------------------------------------

class NotQuadratic(EuclidMinError):
    pass


class NotABasis(EuclidMinError):
    pass


class NonFundamental(EuclidMinError):
    pass


class DegenerateForm(EuclidMinError):
    pass


class NonFundamentalIndefinite(EuclidMinError):
    pass


# -- cli ---------------------------------------------------------------------

class ParseError(EuclidMinError):
    pass


class ValidationError(EuclidMinError):
    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class IoError(EuclidMinError):
    pass
