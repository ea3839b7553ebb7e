"""Exception hierarchy shared by all specrig modules."""


class SpecrigError(Exception):
    """Base class for all analysis errors."""


class InsufficientTruncation(SpecrigError):
    """A series was consulted beyond its certified precision.

    Callers that can re-expand at higher order catch this and retry;
    it must never be swallowed silently.
    """


class UnsupportedExtension(SpecrigError):
    """A field extension beyond the configured degree bound was required."""


class UnsupportedPoleLocation(SpecrigError):
    """A denominator vanishes at an irrational point of the line."""


class ReductionUnavailable(SpecrigError):
    """The splitting-based HTL cross-check cannot run for this germ."""


class AmbiguousComparison(SpecrigError):
    """Deciding equality would require a root of unity the coefficient
    tower does not pin down to a single embedding."""


class InternalInconsistency(SpecrigError):
    """Two routes that must agree disagreed; indicates an upstream bug."""


class InputError(SpecrigError):
    """Malformed problem input (parse error, bad matrix, bad pole list)."""
