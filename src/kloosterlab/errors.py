"""Shared exception types for domain-contract violations."""


class KloosterlabError(ValueError):
    """Base class for all contract violations raised by this package."""


class DomainError(KloosterlabError):
    """An argument is outside the operation's domain (bad range, bad shape)."""


class NotCoprime(KloosterlabError):
    """Two integers required to be coprime are not."""


class NotSquarefree(KloosterlabError):
    """A modulus required to be squarefree has a repeated prime factor."""


class UsageError(KloosterlabError):
    """A command line that does not parse: an unknown flag, a missing or malformed argument."""
