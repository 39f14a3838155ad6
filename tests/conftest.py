import os
import sys

# The code under test is the first lenssurg on PYTHONPATH when that is set,
# else this checkout's src, which still goes ahead of any installed copy:
# src is inserted right after the last PYTHONPATH entry of sys.path.
_pythonpath = {os.path.abspath(d) for d in os.environ.get("PYTHONPATH", "").split(os.pathsep) if d}
_after = max((i + 1 for i, d in enumerate(sys.path) if os.path.abspath(d or ".") in _pythonpath),
             default=0)
sys.path.insert(_after, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))
