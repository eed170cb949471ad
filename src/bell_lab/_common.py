"""The frozen record base and the input checks and limits that more than one module shares; no numpy at import."""

from __future__ import annotations

import math

_MAX_STEPS = 10**6  # RK4 steps one span may take: dbb's cap, which spin's --steps is checked against


def _require_finite(name, value):
    if isinstance(value, float) and math.isfinite(value):  # a Python float or np.float64: no numpy
        return value
    import numpy as np
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _chsh_angles(settings) -> np.ndarray:
    """CHSH settings of shape (..., 4) as a C-contiguous (4, ...) array: alpha, alpha', beta, beta' rows."""
    import numpy as np
    angles = np.asarray(settings, dtype=float)
    if angles.shape[-1:] != (4,):
        raise ValueError(f"settings must have shape (..., 4), got {angles.shape}")
    _require_finite("settings angles", angles)
    return np.ascontiguousarray(np.moveaxis(angles, -1, 0))


class _Record:
    """Frozen record base with the semantics of @dataclass(frozen=True), but no code generated per class.

    Fields are a subclass's annotations, in order after inherited ones; a class attribute of the
    same name is a field's default.  __post_init__ is looked up on the class at every construction.
    """

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values in order, bound from a call's arguments and the defaults."""
        name, fields, n = cls.__qualname__, cls._fields, len(args)
        if n > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {n} were given")
        for key in kwargs:
            if key not in fields[n:]:
                why = "multiple values for" if key in fields else "an unexpected keyword"
                raise TypeError(f"{name}() got {why} argument {key!r}")
        for key in fields[n:]:
            if key not in kwargs and not hasattr(cls, key):
                raise TypeError(f"{name}() missing required argument {key!r}")
        return args + tuple(kwargs[key] if key in kwargs else getattr(cls, key) for key in fields[n:])

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._values()))})"
