"""Immutable value records.

A subclass names its fields in ``__slots__`` and the defaults of its last
fields in ``_defaults``.  Records of one class compare equal, hash and (if
``OrderedRecord``) order like the tuples of their fields.
"""

import operator

_set = object.__setattr__


def _compare(op):
    def method(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._key, other._key)
    return method


class Record:
    __slots__ = ("_key",)  # the tuple of the fields
    _defaults = ()

    def __init__(self, *args):
        names = self.__slots__
        if len(args) != len(names):
            defaults = self._defaults
            args += defaults[len(defaults) + len(args) - len(names):]
            if len(args) != len(names):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"{names}")
        _set(self, "_key", args)
        for name, value in zip(names, args):
            _set(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__
    __eq__ = _compare(operator.eq)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"{type(self).__name__}{self._key!r}"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._key


class OrderedRecord(Record):
    __slots__ = ()
    __lt__, __le__ = _compare(operator.lt), _compare(operator.le)
    __gt__, __ge__ = _compare(operator.gt), _compare(operator.ge)
