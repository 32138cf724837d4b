"""Exception types shared across the package."""


class GammasumsError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(GammasumsError):
    """The requested field characteristic is not a prime number."""


class CapExceeded(GammasumsError):
    """An enumeration or table would exceed the configured size cap."""


class LevelMissing(GammasumsError):
    """An element refers to an extension level the tower does not contain."""


class TowerTooShallow(GammasumsError):
    """A computation needs an extension level above the tower bound."""


class InvalidTwistedPoint(GammasumsError):
    """A twisted torus point violates its fixed-point invariant."""


class NotSigmaPositive(GammasumsError):
    """A weight pairs non-positively with the determinant cocharacter."""


class NotWStable(GammasumsError):
    """The weight multiset is not stable under the Weyl group."""


class NotSurjective(GammasumsError):
    """The weight matrix has rank below the torus rank."""


class NotConstant(GammasumsError):
    """A convolution that must be a character multiple is not one."""


class NotNormalized(GammasumsError):
    """A matrix was expected in companion-normalized block form."""


class SolverSingular(GammasumsError):
    """The triangular coordinate solver met a singular step."""


class NotComputableLocus(GammasumsError):
    """The gamma trace was requested off the regular/rss locus."""


class NotTopStratum(GammasumsError):
    """A top-stratum operation was applied to a lower stratum point."""


class VanishingFailed(GammasumsError):
    """A coset sum that must vanish exactly did not."""


class TableNotOrthogonal(GammasumsError):
    """The GL(2) character table fails an exact orthogonality relation."""


class SystemInconsistent(GammasumsError):
    """The exact linear system for the oracle has no solution."""


class ConfigInvalid(GammasumsError):
    """A harness configuration does not parse or fails validation."""
