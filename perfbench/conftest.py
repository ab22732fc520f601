"""Pin BLAS threads and put the checkout's sources on the path before the
benchmark's own tests import numpy or the package."""

import env

env.pin_threads()
env.add_source_path()
