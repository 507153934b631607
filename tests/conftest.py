"""Hold BLAS to one thread, as the benchmark does.

With several threads, BLAS splits one product's rows between them, so
float64 bits, and the bit-level pins in this suite, depend on the thread
count.  The count is fixed when numpy loads, which is after this file runs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
