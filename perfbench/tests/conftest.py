"""Make the benchmark's modules and the program importable."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from common import use_program  # noqa: E402

use_program()
