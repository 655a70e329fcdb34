"""Exception types raised across the package.

Geometric errors signal that a safety verdict is undefined for the given
configuration (e.g. an object behind the vehicle), not that the input is
malformed; callers may catch ``UscError`` to treat them uniformly.
"""

from typing import Optional


class UscError(Exception):
    """Base class for all package-specific errors."""


class BehindCamera(UscError):
    """A box corner lies at or behind the camera plane; PV projection undefined."""


class DegenerateGroundTruth(UscError):
    """The ground-truth PV rectangle has (near-)zero area."""


class BehindVehicle(UscError):
    """A BEV footprint vertex lies no more than EPS_GEOM ahead of the vehicle."""


class MissingAnnotationField(UscError):
    """A configured error measure needs a field absent from the data."""


class ZeroVariance(UscError):
    """Correlation requested on a series with zero variance."""


class ParseError(UscError):
    """A dataset line or a JSON document cannot be decoded; ``line`` is None
    when the decoder gives no line."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class SchemaError(UscError):
    """A parsed document violates the dataset/config/report schema."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
