"""Exception types shared across the package."""


class NilcrystalError(Exception):
    """Base class for all package-specific errors."""


class InvalidVertex(NilcrystalError, ValueError):
    """A vertex index is outside 1..n."""


class NonReducedWord(NilcrystalError, ValueError):
    """The given word is not a reduced expression."""


class LengthMismatch(NilcrystalError, ValueError):
    """A tuple's length does not match the word length."""


class GraphTooLarge(NilcrystalError, ValueError):
    """A graph read from outside has more vertices than its cap."""


class CapExceeded(NilcrystalError, RuntimeError):
    """A bounded enumeration grew past its cap."""


class InternalRelationFailure(NilcrystalError, RuntimeError):
    """A constructed module violates its defining relations.

    This signals a sign-convention bug in the construction, never bad input.
    """


class NoEmbeddingFound(NilcrystalError, RuntimeError):
    """No injective morphism was found where one must exist."""


class NotInGenericStratum(NilcrystalError, RuntimeError):
    """Datum extraction left a nonzero residual module."""

    def __init__(self, msg, residual_dims=None):
        super().__init__(msg)
        self.residual_dims = residual_dims


class InvalidMovePosition(NilcrystalError, ValueError):
    """No braid move exists at the requested position."""


class DifferentWeylElement(NilcrystalError, ValueError):
    """Two words do not represent the same Weyl group element."""


class InvalidModuleFile(NilcrystalError, ValueError):
    """A serialized module fails its invariants."""
