"""Exception hierarchy shared by all subsystems."""


class SimError(Exception):
    pass


class AtLine(SimError):
    """An error about one line of an input file, when that line is known."""

    def __init__(self, msg, line=None):
        super().__init__(msg if line is None else "line %d: %s" % (line, msg))
        self.line = line


# --- object store ---

class NodeDown(SimError):
    pass


# --- transaction engine ---

class DeadlockVictim(SimError):
    """Raised to the requester chosen to die under wait-die arbitration."""
    pass


# --- action manager ---

class ModeViolation(AtLine):
    pass


# --- mapping ---

class CyclicConstraint(AtLine):
    pass


# --- traces / scenarios ---

class MalformedTrace(AtLine):
    pass


class ValidationError(AtLine):
    pass


class InconsistentFault(SimError):
    pass
