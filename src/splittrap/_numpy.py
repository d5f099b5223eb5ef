"""numpy, loaded on the first read of one of its attributes.

The levels, the unit conversion and the Tonks pair energy are scalar
closed forms, so importing the package, or running the CLI on those
alone, needs no numpy.  Each module that forms arrays binds ``np`` from
here at its top; the first read of an attribute of ``np`` imports numpy
and returns numpy's own object (``np.linalg is numpy.linalg``), which
``np`` then keeps, so every later read of that name is a plain attribute
lookup.  A name numpy lacks raises AttributeError, as it does on numpy.
Nothing reads an ``np`` attribute at import time.
"""


class _Numpy:
    def __getattr__(self, name):
        # An import statement, unlike importlib.import_module, is listed
        # by ``python -X importtime``.
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
