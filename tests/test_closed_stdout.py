"""A reader that closes standard output early gets no traceback and exit code 1.

The output here (4096 group elements, about 130 kB per record) is larger than
a pipe buffer, so the command is still writing when the reader goes away.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
AUT = ["aut", "--ring", "F12289", "t^4096+3", "--format", "json"]


def run_with_reader_closing_after_one_byte(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "idealaut", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.read(1)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    return first, proc.wait(timeout=120), stderr


def test_aut_with_closed_stdout():
    first, code, stderr = run_with_reader_closing_after_one_byte(AUT)
    assert first == b"{"
    assert stderr == b""
    assert code == 1


def test_batch_with_closed_stdout(tmp_path):
    request = {"command": "aut", "ring": "F12289", "inputs": ["t^4096+3"]}
    path = tmp_path / "requests.jsonl"
    path.write_text((json.dumps(request) + "\n") * 3, encoding="utf-8")
    first, code, stderr = run_with_reader_closing_after_one_byte(["batch", str(path)])
    assert first == b"{"
    assert stderr == b""
    assert code == 1
