"""Exception types shared across the toolkit."""


class LiefactError(Exception):
    """Base class for all toolkit errors."""


class FormatError(LiefactError):
    """Malformed input file or serialized record."""


class DimensionMismatch(LiefactError):
    pass


class FieldMismatch(LiefactError):
    pass


class NotFinite(LiefactError):
    """Operation requires a finite field."""


class BudgetExceeded(LiefactError):
    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class LambdaNotAdmissible(LiefactError):
    """The covector does not vanish on the derived algebra."""


class NotADerivation(LiefactError):
    pass


class InvalidTn(LiefactError):
    """Block data violates the coupling constraints."""


class InvalidTwistedDerivation(LiefactError):
    pass


class InvalidMatchedPair(LiefactError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or []


class NotAFactorization(LiefactError):
    pass


class InvalidDeformationMap(LiefactError):
    pass


class CharTwo(LiefactError):
    """Operation undefined in characteristic two."""


class BadParameter(LiefactError, ValueError):
    """Out-of-range input parameter, such as a modulus that is not prime."""


class InvalidTriple(LiefactError):
    pass


class NotPerfect(LiefactError):
    pass


class UnknownScenario(LiefactError):
    pass
