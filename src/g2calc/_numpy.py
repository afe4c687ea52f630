'''numpy, imported on first use.

Every g2calc module that uses numpy reads it through `np`.  The first
attribute read imports numpy, and each attribute read is kept on the
handle.  The exact layer reads none, so importing `g2calc.cli` and running
the exact commands never loads numpy.
'''


class _Numpy:
    def __getattr__(self, name):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
