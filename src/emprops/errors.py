"""Typed errors raised across the toolkit.

The class name doubles as the machine-readable error code the CLI prints,
so names stay short and stable.
"""


class ToolkitError(Exception):
    """Base for all anticipated failures; the CLI maps these to exit 1."""

    @property
    def code(self) -> str:
        return type(self).__name__


# input files
class MissingFile(ToolkitError):
    pass


# molecular graph / SMILES
class UnsupportedElement(ToolkitError):
    pass


class SmilesSyntaxError(ToolkitError):
    pass


class ValenceError(ToolkitError):
    pass


class KekulizationError(ToolkitError):
    pass


# descriptors
class MultiFragment(ToolkitError):
    pass


class MissingDensity(ToolkitError):
    pass


class UnknownBondType(ToolkitError):
    pass


class ZeroDenominator(ToolkitError):
    pass


# dataset
class UnknownChannel(ToolkitError):
    pass


class ParseFailure(ToolkitError):
    def __init__(self, row: int, reason: str) -> None:
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class DuplicateRecord(ToolkitError):
    pass


class NonPositiveForLog(ToolkitError):
    pass


class TooFewMaterials(ToolkitError):
    pass


class UnknownSubset(ToolkitError):
    pass


# models
class InvalidConfig(ToolkitError):
    pass


def check_number(name: str, value, integer: bool, positive: bool) -> None:
    """A config value must be a number (an int when integer) that is
    positive, or else non-negative; a bool is not a number here, although
    Python's bool is an int. InvalidConfig names the value otherwise."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) \
            or not (value > 0 if positive else value >= 0):
        sign = "positive" if positive else "non-negative"
        raise InvalidConfig(f"{name} must be a {sign} {'integer' if integer else 'number'}, "
                            f"not {value!r}")


class DimensionMismatch(ToolkitError):
    pass


class NonFiniteLoss(ToolkitError):
    pass


class VersionMismatch(ToolkitError):
    pass


class CorruptFile(ToolkitError):
    pass


class EmptyData(ToolkitError):
    pass


# metrics
class LengthMismatch(ToolkitError):
    pass


class ConstantTargets(ToolkitError):
    pass
