"""The shared bases of dualfan: every immutable value, and the error
raised when dualfan breaks one of its own invariants.

Contract for a subclass of `Value`:

- It is frozen once its `__init__` returns.  Constructors fill their
  slots with `object.__setattr__`; afterwards setting or deleting any
  attribute raises `AttributeError("<class name> is immutable")`.
- Equality and hashing go through `_key()`: two values are equal when
  they have the same type and equal keys, and the hash is the hash of
  the key.  The default key is the object's identity, so a class that
  does not define `_key` compares by identity.
- It declares `__slots__`, so its instances carry no `__dict__`.
"""


class Value:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self):
        return id(self)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class InternalError(Exception):
    """A statement that holds by construction failed: a fault in dualfan,
    not in its input.  Not a ValueError, so the CLI never reports it as
    rejected input."""
