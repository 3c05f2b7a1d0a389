"""Exception hierarchy shared by all subsystems."""


class SimError(Exception):
    pass


# --- object store ---

class NodeDown(SimError):
    pass


# --- transaction engine ---

class DeadlockVictim(SimError):
    """Raised to the requester chosen to die under wait-die arbitration."""
    pass


# --- action manager ---

class ModeViolation(SimError):
    pass


# --- mapping ---

class CyclicConstraint(SimError):
    pass


# --- traces / scenarios ---

class MalformedTrace(SimError):
    def __init__(self, msg, line=None):
        super().__init__(msg if line is None else "line %d: %s" % (line, msg))
        self.line = line


class ValidationError(SimError):
    def __init__(self, msg, line=None):
        super().__init__(msg if line is None else "line %d: %s" % (line, msg))
        self.line = line


class InconsistentFault(SimError):
    pass
