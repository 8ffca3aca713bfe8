import sys
from pathlib import Path

# the benchmark's tests import the package from the checkout's src/
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
