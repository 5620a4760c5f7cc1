import pathlib
import sys

# the benchmark's modules import each other by bare name (run from e2ebench/)
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
