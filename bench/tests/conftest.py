import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
# the benchmark imports skattn from the checkout's src/ and its own modules by name
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
