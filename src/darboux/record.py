"""Plain records, with no code generated at import: fields from the class annotations
(after the extended record's), defaults (``Factory`` ones made per instance), ``__post_init__``,
equality by exact class and field values, and a dataclass's repr.  ``frozen=True`` (inherited)
refuses assignment and hashes by the field values, once; other records are unhashable."""

from functools import partial
from operator import attrgetter


class Factory(partial):
    """A field default made per instance, by calling the factory."""


class Record:
    _fields, _cached_hash, __hash__ = (), None, None

    def __init_subclass__(cls, frozen=False):
        cls._fields = fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        values = attrgetter(*fields) if fields else (lambda self: ())
        # The field values as one tuple, as a dataclass compares and hashes them.
        cls._values = staticmethod(values if len(fields) != 1 else lambda self: (values(self),))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse
            cls.__hash__ = Record._frozen_hash

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # keywords and defaults (class attributes)
            cls, args = type(self), list(args)
            for field in fields[len(args):]:
                if field not in kwargs and not hasattr(cls, field):
                    raise TypeError(f"{cls.__qualname__}() missing argument {field!r}")
                default = getattr(cls, field, None)
                args.append(kwargs.pop(field) if field in kwargs
                            else default() if isinstance(default, Factory) else default)
            if kwargs or len(args) > len(fields):
                raise TypeError(f"{cls.__qualname__}() takes only the fields {', '.join(fields)}")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values(self) == other._values(other) if same else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self):  # a hash is valid in one process only: string hashes are salted
        return {k: v for k, v in self.__dict__.items() if k != "_cached_hash"}

    def _refuse(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def _frozen_hash(self):
        if self._cached_hash is None:
            object.__setattr__(self, "_cached_hash", hash(self._values(self)))
        return self._cached_hash
