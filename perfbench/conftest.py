import sys
from pathlib import Path

# The benchmark's tests import the package from this checkout's src/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# Run outputs, including the copy made to run the benchmark without the program.
collect_ignore = ["_work"]
