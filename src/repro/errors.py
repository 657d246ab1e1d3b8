"""Exception hierarchy for the UltraPrecise reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class DecimalError(ReproError):
    """Base class for fixed-point decimal errors."""


class PrecisionOverflowError(DecimalError):
    """A value does not fit in its declared ``DECIMAL(p, s)`` container."""


class DivisionByZeroError(DecimalError):
    """Division or modulo by a zero-valued decimal."""


class ConversionError(DecimalError):
    """A literal could not be converted to a decimal value."""


class ExpressionError(ReproError):
    """Base class for expression parsing / compilation errors."""


class ParseError(ExpressionError):
    """The expression or SQL text could not be parsed."""


class TypeInferenceError(ExpressionError):
    """Precision/scale inference failed for an expression node."""


class CodegenError(ExpressionError):
    """Kernel code generation failed."""


class GpuSimError(ReproError):
    """Base class for GPU-simulator errors."""


class LaunchConfigError(GpuSimError):
    """An invalid kernel launch configuration was requested."""


class UnsupportedInstructionError(GpuSimError):
    """The kernel IR contains an instruction the executor cannot run."""


class StorageError(ReproError):
    """Base class for storage-layer errors."""


class SchemaError(StorageError):
    """A relation or column definition is invalid."""


class CatalogError(StorageError):
    """A relation was not found or already exists in the catalog."""


class EngineError(ReproError):
    """Base class for query-engine errors."""


class PlanningError(EngineError):
    """The logical plan could not be converted to a physical plan."""


class ExecutionError(EngineError):
    """Query execution failed at runtime."""


class ServingError(EngineError):
    """Base class for concurrent-serving-layer errors."""


class AdmissionError(ServingError):
    """The server's admission controller rejected a query.

    Raised when accepting the query would exceed the configured in-flight
    plus queue-depth budget; the query was never executed, so retrying
    after back-off is safe.
    """


class QueryTimeoutError(ServingError):
    """A served query exceeded its timeout and was cancelled cleanly."""


class QueryCancelledError(ServingError):
    """Query execution observed its cancellation flag and stopped.

    Raised between operators, never mid-kernel, so shared state (the
    kernel cache, device residency) is always left consistent.
    """


class BaselineError(ReproError):
    """Base class for baseline-database model errors."""


class CapabilityError(BaselineError):
    """The query exceeds a baseline database's DECIMAL capability.

    This is how the reproduction models e.g. HEAVY.AI refusing precisions
    above 18 or MonetDB failing once ``LEN`` exceeds 4 (paper section IV-A).
    """


class MultithreadError(ReproError):
    """Base class for CGBN-style thread-group arithmetic errors."""


class TpiRestrictionError(MultithreadError):
    """A TPI configuration violates a documented restriction.

    The paper notes the Newton-Raphson division path requires
    ``LEN / TPI <= TPI`` (section IV-C1).
    """
