"""MCS permission model.

Permissions may be attached to the MCS itself, to a logical file, to a
logical collection, or to a logical view (§5, "Authorization metadata").
The effective permission set on a logical file is *the union of the
permissions on that file and the permissions on its enclosing logical
collection, and so on up the hierarchy of collections* — implemented by
:func:`effective_permissions`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.security.errors import AuthorizationError
from repro.security.identity import DistinguishedName


class Permission(enum.Flag):
    """Rights on MCS objects."""

    NONE = 0
    READ = enum.auto()     # query attributes / list contents
    WRITE = enum.auto()    # modify attributes, add members
    DELETE = enum.auto()   # remove the object
    ANNOTATE = enum.auto() # attach annotations
    ADMIN = enum.auto()    # change permissions / audit settings

    @classmethod
    def all(cls) -> "Permission":
        return cls.READ | cls.WRITE | cls.DELETE | cls.ANNOTATE | cls.ADMIN


@dataclass
class AccessControlList:
    """Per-object ACL: DN text -> permission flags, plus a public grant."""

    entries: dict[str, Permission] = field(default_factory=dict)
    public: Permission = Permission.NONE
    owner: Optional[str] = None

    def grant(self, user: DistinguishedName | str, permission: Permission) -> None:
        key = str(user)
        self.entries[key] = self.entries.get(key, Permission.NONE) | permission

    def revoke(self, user: DistinguishedName | str, permission: Permission) -> None:
        key = str(user)
        if key in self.entries:
            self.entries[key] &= ~permission
            if self.entries[key] is Permission.NONE:
                del self.entries[key]

    def grant_public(self, permission: Permission) -> None:
        self.public |= permission

    def permissions_for(self, user: DistinguishedName | str) -> Permission:
        key = str(user)
        granted = self.entries.get(key, Permission.NONE) | self.public
        if self.owner is not None and key == self.owner:
            granted |= Permission.all()
        return granted

    def allows(self, user: DistinguishedName | str, permission: Permission) -> bool:
        return permission in self.permissions_for(user)


class FrozenACL:
    """An object's stored ACL rows, immutable: principal → permission bits,
    the principal ``"*"`` being the public grant.

    The catalog's authorization cache hands one value to every thread, so it
    cannot be a mutable :class:`AccessControlList`; objects without ACL rows
    all share :data:`EMPTY_ACL`.
    """

    __slots__ = ("_bits",)

    def __init__(self, rows: Iterable[tuple[str, int]] = ()) -> None:
        self._bits = {principal: Permission(value) for principal, value in rows}

    def permissions_for(self, user: DistinguishedName | str) -> Permission:
        bits = self._bits
        return bits.get(str(user), Permission.NONE) | bits.get("*", Permission.NONE)

    def thaw(self) -> AccessControlList:
        """A mutable copy, for callers that edit or list it."""
        acl = AccessControlList()
        for principal, bits in self._bits.items():
            if principal == "*":
                acl.grant_public(bits)
            else:
                acl.entries[principal] = bits
        return acl


EMPTY_ACL = FrozenACL()


def effective_permissions(
    user: DistinguishedName | str,
    own_acl: Optional[AccessControlList | FrozenACL],
    collection_chain: Iterable[Optional[AccessControlList | FrozenACL]] = (),
) -> Permission:
    """Union of the object's own grants and its collection chain's grants."""
    granted = Permission.NONE
    if own_acl is not None:
        granted |= own_acl.permissions_for(user)
    for acl in collection_chain:
        if acl is not None:
            granted |= acl.permissions_for(user)
    return granted


def require(
    user: DistinguishedName | str,
    permission: Permission,
    own_acl: Optional[AccessControlList],
    collection_chain: Iterable[Optional[AccessControlList]] = (),
    what: str = "object",
) -> None:
    """Raise AuthorizationError unless the effective permissions suffice."""
    granted = effective_permissions(user, own_acl, collection_chain)
    if permission not in granted:
        raise AuthorizationError(
            f"{user} lacks {permission} on {what} (has {granted})"
        )
