"""The immutability protocol of the package's records that are not tuples."""


class Frozen:
    """Base of an immutable value record.

    Setting or deleting an attribute raises AttributeError, so a subclass
    sets its fields with ``object.__setattr__``.  Two records are equal,
    and hash alike, when they are of one class and their ``_key()`` are
    equal; ``_key`` defaults to the ``__slots__`` fields in order.
    Copy and pickle rebuild a record by calling its class on ``_key()``,
    so a subclass whose constructor takes other arguments overrides
    ``__reduce__``.
    """

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()
