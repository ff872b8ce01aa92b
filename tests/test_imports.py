"""The runtime is numpy-only: scipy and hypothesis are test oracles."""

import os
import subprocess
import sys
from pathlib import Path

import ipmdro


def test_import_pulls_in_no_test_only_dependency():
    src = str(Path(ipmdro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, ipmdro, ipmdro.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis'}))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=60,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
