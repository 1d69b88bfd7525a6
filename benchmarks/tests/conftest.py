"""Puts the benchmark modules and the checkout's pecshift on sys.path.

    python3 -m pytest benchmarks/tests -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from workloads import use_checkout_source  # noqa: E402

use_checkout_source()
