"""The five demos, run as scripts, print exactly what they printed when
their digests were frozen."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# stdout SHA-256 and exit code of each demo, frozen from a known-good build
FROZEN_DEMOS = [
    ("01_lattices_and_llv_space.py", 0,
     "2b65439b09393625f0cb91c90133b0177368cda186f2d75b564efb0262334ebc"),
    ("02_harmonic_and_lines.py", 0,
     "b86f110e45e88757566b50517bbe5d06df44ee0f79dbc5603e27764a421d5b22"),
    ("03_k32_ring_and_chern_data.py", 0,
     "de1d5d44b3dc5e907fa764c2d268fa0808f24fc7865445e63537e2ac20b7dabd"),
    ("04_lagrangian_arithmetic.py", 0,
     "c28205d1bae4f7f64ca24eddc3c7c2fa7fc68bc3f69e777a170e949252cc409a"),
    ("05_monodromy_pipeline.py", 0,
     "3c1a66a3f44d18bc05a2b94c8b17cb0d34c5399bc0ceceb861f3c193d55a689f"),
]


def test_every_demo_is_frozen():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        [name for name, _, _ in FROZEN_DEMOS]


@pytest.mark.parametrize("name, code, digest", FROZEN_DEMOS,
                         ids=[name for name, _, _ in FROZEN_DEMOS])
def test_demo_output(name, code, digest):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == code, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
