"""Exception hierarchy shared by all ahalg modules.

Plain arithmetic failures reuse the builtin exceptions Python programmers
expect (``ZeroDivisionError`` for division by zero, ``NotImplementedError``
for the one deliberately unimplemented membership test); everything that is
specific to this library derives from :class:`AhError`.
"""


class AhError(Exception):
    """Base class for all ahalg-specific errors."""


class FieldMismatch(AhError):
    """Operands belong to different fields."""


class InfiniteFieldError(AhError, TypeError):
    """An enumeration was requested over the rationals (a TypeError: no length hint)."""


class ZeroInputError(AhError):
    """An operation received a zero polynomial/element it cannot accept."""


class ContextMismatch(AhError):
    """Operands belong to different algebra contexts."""


class NotInSubalgebraError(AhError):
    """A Weyl-algebra element is not a member of the requested subalgebra."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"coefficient of y^{index} breaks membership")


class NotDivisibleError(AhError):
    """A required exact polynomial divisibility does not hold."""


class ConstantHError(AhError):
    """The operation needs deg h >= 1 but h is constant."""


class InvalidPairError(AhError):
    """(alpha, beta) does not satisfy h(alpha*x + beta) = alpha^deg(h) * h."""


class CharacteristicError(AhError):
    """The operation is unavailable in the field's characteristic."""


class WrongHError(AhError):
    """The operation requires h of a specific shape (e.g. h = x^n)."""


class NotNormalError(AhError):
    """Classification was requested for a non-normal element."""


class UnverifiableError(AhError):
    """The answer would depend on an unverified rational factorization."""


class SelfCheckError(AhError):
    """An internal self-check failed: a result broke an invariant the code relies on."""


class ParseError(AhError):
    """Syntax error in an expression, with a position when known."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
