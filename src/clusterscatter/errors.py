"""Exception types shared across the package.

Every error raised on bad user input derives from :class:`InputError`
(mapped to exit code 2 by the command line driver), while blown resource
ceilings raise :class:`ResourceLimitError` (exit code 3).  Internal
consistency failures use plain ``AssertionError`` so they are never
silently caught.
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or out-of-contract input (schema violations included)."""


class GenericPositionError(InputError):
    """A base point or endpoint lies on a wall where genericity is required."""


class DegenerateBrokenLineError(GenericPositionError):
    """A segment of a broken line to a generic endpoint passes through the
    origin or runs along a wall's support line; ``degeneracy`` says which,
    as a phrase completing "a segment ..."."""

    def __init__(self, degeneracy: str):
        super().__init__(f"a segment {degeneracy}; perturb the endpoint")
        self.degeneracy = degeneracy


class NonTransversalCrossingError(InputError):
    """A path segment meets a wall tangentially, so no crossing is defined."""


class TranslateUndefinedError(InputError):
    """The mesh translate was requested where it does not exist."""


class UnsupportedInputError(InputError):
    """Input is valid but outside the implemented classification."""


class InterpolationError(InputError):
    """A counting polynomial disagrees with an independent count: its value
    at q=1 with the Euler characteristic, or at q=2 with the number of
    subrepresentations over F_2 (or, in the test oracle, point counts
    over finite fields do not fit one polynomial)."""


class ResourceLimitError(RuntimeError):
    """A configured resource ceiling (terms or subspaces) was exceeded; the
    message names the ceiling, its limit, the value reached and the
    environment variable that raises it."""
