"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class ZeroParavector(EngineError):
    """Inversion of a paravector with zero norm."""


class NotParavector(EngineError):
    """A paravector was required, but a blade of grade 2 or more is nonzero."""


class NotFinite(EngineError):
    """A point has an infinite or NaN coefficient."""


class NotImaginaryUnit(EngineError):
    """A unit 1-vector was required but not supplied."""


class AxisSingularity(EngineError):
    """Axial extension hit the real axis with a nonzero odd part."""


class AxisTooClose(EngineError):
    """Radial coordinate below the configured minimum for 1/r terms."""


class SpectralSphereHit(EngineError):
    """Evaluation point lies on (or too close to) the sphere of the pole."""


class OutsideConvergenceDisk(EngineError):
    """Series evaluation requested outside its disk of convergence."""


class DegenerateRadius(EngineError):
    """Contour radius must be positive."""


class PointOutsideDomain(EngineError):
    """Evaluation point is not strictly inside the contour."""


class OnSpectrum(EngineError):
    """The spectral parameter is too close to the S-spectrum."""


class SingularSolve(EngineError):
    """A linear solve encountered a singular matrix."""


class SpectrumNotEnclosed(EngineError):
    """The contour does not strictly enclose every spectral sphere."""


class NotIntrinsic(EngineError):
    """An intrinsic (real-coefficient) polynomial was required."""


class EigensolverFailure(EngineError):
    """The dense eigensolver did not converge."""


class UnknownSuite(EngineError):
    """Unknown verification suite name."""


class ConfigError(EngineError):
    """Invalid harness configuration."""
