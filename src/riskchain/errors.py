"""Engine error taxonomy with stable machine-readable codes."""


class EngineError(Exception):
    """Base error. ``code`` is a stable identifier, ``details`` is JSON-safe."""

    code = "ENGINE"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    def to_dict(self):
        return {"code": self.code, "message": str(self), "details": self.details}


class SchemaError(EngineError):
    """Malformed input document or structurally invalid constructor arguments."""

    code = "SCHEMA"


class ModelError(EngineError):
    """A ScenarioModel invariant is violated; ``code`` is set per violation
    and ``details`` name the stage and atom at fault (None when none is)."""

    def __init__(self, code, message, stage_index=None, atom_index=None):
        super().__init__(message, stage_index=stage_index, atom_index=atom_index)
        self.code = code


class OutOfRangeError(EngineError):
    code = "OUT_OF_RANGE"


class EmptyKernelError(EngineError):
    """No measure in the set charges the requested atom."""

    code = "EMPTY_KERNEL"


class EmptyIntersectionError(EngineError):
    code = "EMPTY_INTERSECTION"


class NotMeasurableError(EngineError):
    code = "NOT_MEASURABLE"


class InfeasibleError(EngineError):
    """An acceptance decomposition does not exist."""

    code = "INFEASIBLE"


class NotCoarserError(EngineError):
    code = "NOT_COARSER"


class SizeBoundError(EngineError):
    """Desk-scale bound exceeded."""

    code = "TOO_LARGE"
