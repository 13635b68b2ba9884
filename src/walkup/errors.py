"""Exception types shared across the package."""

class WalkupError(Exception):
    """Base class for all walkup errors."""


class UnreadableInput(WalkupError):
    """Input file cannot be opened or decoded."""


class SchemaError(WalkupError):
    """A line of an input file violates the expected schema."""

    def __init__(self, line: int, reason: str):
        # both go to Exception, whose pickling calls SchemaError(*args), so a
        # forked batch worker's error reaches the parent whole
        super().__init__(line, reason)
        self.line = line
        self.reason = reason

    def __str__(self) -> str:
        return f"line {self.line}: {self.reason}"


class EmptySequence(WalkupError):
    """Input contains no landmark frames."""


class MissingLandmark(WalkupError):
    """A required landmark is absent or gives no usable value."""


class SequenceTooShort(WalkupError):
    """Sequence shorter than the minimum required for windowed analysis."""


class EmptySeries(WalkupError):
    """Feature extraction received an empty series."""


class UnknownFeature(WalkupError):
    """One extraction requested the same feature id twice."""
