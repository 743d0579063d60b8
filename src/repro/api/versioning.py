"""Schema-version negotiation for the wire protocol.

Every top-level wire payload carries a *stamp*::

    {"schema": "repro.solve", "kind": "solve_request", "version": 1, ...}

:func:`negotiate` is the single entry point decoders go through: it checks
the schema family and kind, then *migrates* old messages forward one version
at a time through hooks registered with :func:`register_migration`.  This is
how the protocol evolves without flag days — a server on version N accepts
clients on any version for which a migration chain to N exists, and rejects
everything else with :class:`~repro.api.errors.UnsupportedVersionError`
(mapped to the ``unsupported_version`` error envelope over HTTP).
"""

from __future__ import annotations

from typing import Callable

from repro.api.errors import SchemaError, UnsupportedVersionError

__all__ = [
    "SCHEMA_FAMILY",
    "SCHEMA_VERSION",
    "version_stamp",
    "negotiate",
    "register_migration",
    "clear_migrations",
]

#: Family identifier shared by every payload of this protocol.
SCHEMA_FAMILY = "repro.solve"

#: Current (highest understood) schema version.
SCHEMA_VERSION = 1

#: ``(kind, from_version) -> payload -> payload`` upgrade hooks.  Each hook
#: receives a payload of ``from_version`` and must return the equivalent
#: payload of ``from_version + 1`` (the stamp is advanced by the caller).
_MIGRATIONS: dict[tuple[str, int], Callable[[dict], dict]] = {}


def version_stamp(kind: str, version: int = SCHEMA_VERSION) -> dict:
    """The stamp every top-level payload of ``kind`` starts from."""
    return {"schema": SCHEMA_FAMILY, "kind": kind, "version": version}


def register_migration(kind: str, from_version: int,
                       migrate: Callable[[dict], dict]) -> None:
    """Register an upgrade hook for messages of ``kind`` at ``from_version``."""
    _MIGRATIONS[(kind, int(from_version))] = migrate


def clear_migrations() -> None:
    """Drop every registered migration (test isolation helper)."""
    _MIGRATIONS.clear()


def negotiate(payload: dict, kind: str) -> dict:
    """Validate a payload's stamp and migrate it to :data:`SCHEMA_VERSION`.

    Raises :class:`SchemaError` for messages that are not stamped, belong to
    a different schema family, or are of the wrong kind, and
    :class:`UnsupportedVersionError` when no migration chain reaches the
    current version (including messages from the *future*).
    """
    if not isinstance(payload, dict):
        raise SchemaError(
            f"expected a JSON object payload, got {type(payload).__name__}")
    family = payload.get("schema")
    if family != SCHEMA_FAMILY:
        raise SchemaError(
            f"payload schema {family!r} is not {SCHEMA_FAMILY!r}")
    payload_kind = payload.get("kind")
    if payload_kind != kind:
        raise SchemaError(
            f"expected a {kind!r} payload, got kind {payload_kind!r}")
    try:
        version = int(payload.get("version"))
    except (TypeError, ValueError):
        raise SchemaError(
            f"payload version {payload.get('version')!r} is not an integer")
    if version > SCHEMA_VERSION:
        raise UnsupportedVersionError(
            f"{kind} version {version} is newer than the supported "
            f"version {SCHEMA_VERSION}")
    while version < SCHEMA_VERSION:
        migrate = _MIGRATIONS.get((kind, version))
        if migrate is None:
            raise UnsupportedVersionError(
                f"no migration registered for {kind} version {version}; "
                f"supported version is {SCHEMA_VERSION}")
        payload = dict(migrate(dict(payload)))
        version += 1
        payload["version"] = version
    return payload
