"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 2, ResourceError (and
CapacityError) -> 4, as it maps an OSError on a path to 2 and MemoryError
to 4.  Exit 3 is not an error: it means only that `verify`
found the checked condition violated.
"""


class ContractForgeError(Exception):
    """Base class for all package errors."""


class InputError(ContractForgeError):
    """Bad arguments or malformed input data."""


class ResourceError(ContractForgeError):
    """An iteration cap or convergence budget was exhausted."""


class CapacityError(ResourceError):
    """Problem size exceeds what the dense desk-scale routines will attempt."""
