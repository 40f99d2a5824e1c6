"""The package's one import of numpy, on one OpenBLAS thread unless the user chose.

Every module that uses numpy takes `np` from here.  When numpy is not loaded
yet and none of the variables OpenBLAS reads for its thread count
(OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS, OMP_NUM_THREADS) is set,
OPENBLAS_NUM_THREADS is set to 1 around `import numpy` and then removed, so
the environment is left as it was.  The step graphons are small (m = 16 by
default) and gain nothing from BLAS threads, while starting OpenBLAS's thread
pool costs each process tens of milliseconds.  Up to m = 100 the results are
the same bits either way; above it, threaded matrix products can round
differently with the thread count, and on one thread they do not.  To opt
out, set any of the three variables, or import numpy before the package: a
loaded numpy is left alone.
"""

import os
import sys

# the variables OpenBLAS reads for its thread count, in the order it reads them
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" in sys.modules or any(name in os.environ for name in THREAD_VARIABLES):
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
