"""Exception hierarchy shared across the proxauth modules.

Every error carries a short ``code`` (used verbatim on the wire protocol)
and a ``domain`` naming the module it belongs to, so front-ends can report
module-qualified codes like ``beacon_model.RowParseError``.
"""

from __future__ import annotations


class ProxauthError(Exception):
    """Base class for all domain errors raised by this package."""

    domain = "proxauth"

    @property
    def code(self) -> str:
        return type(self).__name__


# -- beacon_model ------------------------------------------------------------

class MalformedHeader(ProxauthError):
    domain = "beacon_model"


class RowParseError(ProxauthError):
    """A CSV data row could not be parsed; records the row and column."""

    domain = "beacon_model"

    def __init__(self, row: int, column: str, message: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r} ({message})")


class EmptyDataset(ProxauthError):
    domain = "beacon_model"


# -- colocation_ml -----------------------------------------------------------

class DegenerateSplit(ProxauthError):
    domain = "colocation_ml"


class EmptyNode(ProxauthError):
    domain = "colocation_ml"


class EmptyTrainingSet(ProxauthError):
    domain = "colocation_ml"


class EmptyTestSet(ProxauthError):
    domain = "colocation_ml"


class EmptyMatrix(ProxauthError):
    domain = "colocation_ml"


# -- rf_simulator ------------------------------------------------------------

class NonPositiveDistance(ProxauthError):
    domain = "rf_simulator"


class NoVisibleAp(ProxauthError):
    domain = "rf_simulator"


class ConfigurationError(ProxauthError):
    domain = "rf_simulator"


# -- auth_service ------------------------------------------------------------

class DuplicateUser(ProxauthError):
    domain = "auth_service"


class DuplicateDeviceId(ProxauthError):
    domain = "auth_service"


class WeakSecret(ProxauthError):
    domain = "auth_service"


class UnknownUser(ProxauthError):
    domain = "auth_service"


class UnknownSession(ProxauthError):
    domain = "auth_service"


class ForeignDevice(ProxauthError):
    domain = "auth_service"


class DuplicateRoleSubmission(ProxauthError):
    domain = "auth_service"


class SessionDecided(ProxauthError):
    """A scan was submitted to a session whose decision is already final."""

    domain = "auth_service"


class MissingScan(ProxauthError):
    """decide_session was invoked before both device scans arrived."""

    domain = "auth_service"
