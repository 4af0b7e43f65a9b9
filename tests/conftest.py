"""Let the CLI subprocesses the tests start import ``gleason`` from ``src/``.

``pythonpath`` in pyproject.toml puts ``src`` on pytest's own ``sys.path``;
a ``python -m gleason`` child sees only the environment, so ``src`` is
prepended to its ``PYTHONPATH`` as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
