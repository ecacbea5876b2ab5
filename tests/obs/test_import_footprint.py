"""The status endpoint's HTTP stack loads only when a run serves status.

``http.server`` pulls in ``ssl`` and ``email`` (2.6 MiB of peak RSS
and 16 ms of ``import repro.fleet`` on a 2-core VM), and only
``--status-port`` needs it, so
:meth:`repro.obs.status.StatusServer.start` imports it.  A fresh
interpreter shows whether any module-level import brings it back.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

_SRC = pathlib.Path(repro.__file__).resolve().parents[1]

_HEAVY = ("http.server", "ssl")


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_leaves_the_http_stack_unloaded(module):
    probe = (
        f"import json, sys; import {module}; "
        f"print(json.dumps([m for m in {_HEAVY!r} if m in sys.modules]))"
    )
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    assert json.loads(out.stdout) == []
