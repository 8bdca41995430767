"""Errors raised by the word enumerations and the sweep drivers."""


class EnumerationCapExceeded(RuntimeError):
    """Raised when a reduced-word enumeration would produce more words than allowed.

    The cap is an explicit guard against runaway enumerations; exceeding it is
    an error, never a silent truncation.  It is raised before any word is
    built: the exact word count is checked against the cap first.
    """

    def __init__(self, cap: int):
        super().__init__(
            f"reduced-word enumeration exceeded the cap of {cap} words"
        )
        self.cap = cap


class SweepBoundExceeded(RuntimeError):
    """Raised when an exhaustive sweep is requested beyond its configured bound."""

    def __init__(self, degree: int, bound: int):
        super().__init__(
            f"sweep over degree {degree} exceeds the configured bound of {bound}"
        )
        self.degree = degree
        self.bound = bound
