"""The CLI's bytes: every call in golden/manifest.json, run in-process through
``cli.main``, gives the exit code, stdout and stderr recorded there.

A stdout of up to 1 KiB is stored in full, a larger one as its SHA-256 and
length.  The pattern means call the platform's libm, so stdout is compared
only on the platform the corpus was taken on; exit codes and stderr are
compared everywhere.  A change that means to change the CLI's bytes retakes
the corpus in the same diff, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys

import pytest

from wearemf import cli

MANIFEST = os.path.join(os.path.dirname(__file__), "golden", "manifest.json")
# the largest stdout that the manifest holds in full
FULL_BYTES = 1024


def _platform() -> dict:
    return {"libc": platform.libc_ver()[0], "machine": platform.machine(),
            "python": "%d.%d" % sys.version_info[:2]}


def _take(argv: list[str]) -> dict:
    """The exit code, stdout and stderr of ``cli.main(argv)``, as the manifest holds them."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    stdout.flush()
    out = stdout.buffer.getvalue()
    if len(out) > FULL_BYTES:
        out = {"sha256": hashlib.sha256(out).hexdigest(), "length": len(out)}
    else:
        out = out.decode("ascii")
    return {"argv": argv, "exit": code, "stdout": out, "stderr": stderr.getvalue()}


def _load() -> dict:
    with open(MANIFEST, encoding="utf-8") as file:
        return json.load(file)


CORPUS = _load()


@pytest.mark.parametrize("call", CORPUS["calls"], ids=lambda call: " ".join(call["argv"]))
def test_cli_bytes_match_the_golden_corpus(call):
    taken = _take(call["argv"])
    assert (taken["exit"], taken["stderr"]) == (call["exit"], call["stderr"])
    if _platform() == CORPUS["platform"]:
        assert taken["stdout"] == call["stdout"]


if __name__ == "__main__":
    corpus = {"platform": _platform(), "calls": [_take(call["argv"]) for call in _load()["calls"]]}
    with open(MANIFEST, "w", encoding="utf-8") as file:
        json.dump(corpus, file, indent=1)
        file.write("\n")
