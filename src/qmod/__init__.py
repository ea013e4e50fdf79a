"""qmod: exact integer q-series arithmetic for a small catalog of weight-2
CM eta-quotient newforms, their weight-0 companion forms with poles, and a
p-adic verification harness tying the two together.

Each module lists its public names once, in its own __all__; the package
re-exports all of them."""

# In dependency order: importing cli first measured about 0.4 MB more
# peak RSS at `import qmod`.
from . import qseries, operators, eta, spans, verify, cli
from .qseries import *
from .operators import *
from .eta import *
from .spans import *
from .verify import *
from .cli import *

__version__ = "0.1.0"

__all__ = [
    *qseries.__all__, *operators.__all__, *eta.__all__, *spans.__all__,
    *verify.__all__, *cli.__all__, "__version__",
]
