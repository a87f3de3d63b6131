"""The CLI's bytes: every call in golden/manifest.json, run in-process through
``cli.main``, gives the exit code, stdout, stderr and ``--output`` file recorded
there.

In a manifest argv, the path after ``--scenario`` names a file under golden/,
and the path after ``--output`` a file in a fresh temporary directory.  A
stdout or output file of up to 1 KiB is stored in full, a larger one as its
SHA-256 and length.  The pattern means call the platform's libm, so stdout and
output files are compared only on the platform the corpus was taken on; exit
codes and stderr are compared everywhere, and so is the text a call writes to a
stdout without a binary buffer.  A change that means to change the CLI's bytes
retakes the corpus in the same diff, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from unittest import mock

import pytest

from wearemf import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
MANIFEST = os.path.join(GOLDEN, "manifest.json")
# the largest stdout or output file that the manifest holds in full
FULL_BYTES = 1024


def _platform() -> dict:
    return {"libc": platform.libc_ver()[0], "machine": platform.machine(),
            "python": "%d.%d" % sys.version_info[:2]}


def _run(argv: list[str], stdout) -> tuple:
    """The exit code, stderr and stored ``--output`` file (or None) of
    ``cli.main(argv)`` run with ``stdout`` as standard output, its paths
    resolved as the manifest's, and an 80-column terminal for ``--help``."""
    resolved = list(argv)
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        for at, option in enumerate(argv[:-1]):
            if option in ("--scenario", "--output"):
                base = GOLDEN if option == "--scenario" else work
                resolved[at + 1] = os.path.join(base, argv[at + 1])
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch.dict(os.environ, COLUMNS="80"):
            code = cli.main(resolved)
        output = None
        if "--output" in argv and os.path.exists(path := resolved[argv.index("--output") + 1]):
            with open(path, "rb") as file:
                output = _stored(file.read())
    return code, stderr.getvalue(), output


def _stored(data: bytes):
    """``data`` as the manifest holds it: in full up to FULL_BYTES, else hashed."""
    if len(data) > FULL_BYTES:
        return {"sha256": hashlib.sha256(data).hexdigest(), "length": len(data)}
    return data.decode("ascii")


def _take(argv: list[str]) -> dict:
    """The exit code, stdout, stderr and ``--output`` file of ``cli.main(argv)``,
    as the manifest holds them."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    code, stderr, output = _run(argv, stdout)
    stdout.flush()
    taken = {"argv": argv, "exit": code, "stdout": _stored(stdout.buffer.getvalue()),
             "stderr": stderr}
    if output is not None:
        taken["output"] = output
    return taken


def _load() -> dict:
    with open(MANIFEST, encoding="utf-8") as file:
        return json.load(file)


CORPUS = _load()


@pytest.mark.parametrize("call", CORPUS["calls"], ids=lambda call: " ".join(call["argv"]))
def test_cli_bytes_match_the_golden_corpus(call):
    taken = _take(call["argv"])
    assert (taken["exit"], taken["stderr"]) == (call["exit"], call["stderr"])
    if _platform() == CORPUS["platform"]:
        assert (taken["stdout"], taken.get("output")) == (call["stdout"], call.get("output"))
    # a stdout without a binary buffer, as contextlib.redirect_stdout(StringIO()) gives
    text = io.StringIO()
    assert _run(call["argv"], text) == (taken["exit"], taken["stderr"], taken.get("output"))
    assert _stored(text.getvalue().encode("ascii")) == taken["stdout"]


if __name__ == "__main__":
    corpus = {"platform": _platform(), "calls": [_take(call["argv"]) for call in _load()["calls"]]}
    with open(MANIFEST, "w", encoding="utf-8") as file:
        json.dump(corpus, file, indent=1)
        file.write("\n")
