"""Exception types shared across the package.

Every error here signals a violated precondition (a usage error), not a
failed mathematical assertion.  Failed inequalities are reported through
result records, never raised.
"""


class FFDecompError(Exception):
    """Base class for all package errors."""


class CompositeModulus(FFDecompError):
    """The requested modulus is not prime."""


class ModulusTooLarge(FFDecompError):
    """The modulus exceeds a table cap: 2**20 for the discrete-log tables,
    and p**2/8 bytes <= 1 GiB (p <= 92681) for a search's S - c table."""


class BadIndex(FFDecompError):
    """Subgroup index d does not divide p-1, or is out of range for the operation."""


class MixedModulus(FFDecompError):
    """Binary set operation applied to sets over different ambient moduli."""


class DuplicateShift(FFDecompError):
    """Shift list contains a repeated element."""


class ZeroSetOnly(FFDecompError):
    """Operand set equals {0}, which the statement excludes."""


class ConfigError(FFDecompError):
    """Sweep configuration file is malformed."""
