"""Importing the package raises Python's int/str digit cap, never lowers it."""

import os
import subprocess
import sys

import pytest

import repro

SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Renders a 5,000-digit value, past the interpreter's default 4,300-digit cap.
WIDE_VALUE = """
import sys

import repro
from repro.core.decimal import DecimalSpec, DecimalValue

print(sys.get_int_max_str_digits())
text = str(DecimalValue.from_unscaled(-(10**5000 - 1), DecimalSpec(5000, 2)))
assert len(text) == 5002 and text.startswith("-999") and text.endswith(".99"), text[:12]
"""


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit cap before 3.11"
)
@pytest.mark.parametrize(
    "start, expected", [(4300, 1_000_000), (2_000_000, 2_000_000), (0, 0)]
)
def test_import_raises_the_digit_cap_for_wide_values(start, expected):
    path = os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-X", f"int_max_str_digits={start}", "-c", WIDE_VALUE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert int(completed.stdout.split()[0]) == expected
