"""The two names that ``perfbench/run.py`` records in its environment block.

The package has one pure-numpy raycast path and jits nothing. The benchmark
still reports whether Numba is installed (``HAS_NUMBA``, probed without
importing it) and in use (``NUMBA_ENABLED``, always False), so that results
from hosts with and without it stay comparable.
"""

from importlib.util import find_spec

HAS_NUMBA = find_spec("numba") is not None
NUMBA_ENABLED = False
