"""The compiled kernel's build cache: reuse, keying and build failures."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import kernel

SRC = Path(kernel.__file__).resolve().parents[2]


def test_second_import_reuses_the_cached_module(monkeypatch):
    path = kernel._build()
    assert path.name.startswith(f"_spade_kernel_{kernel._key(kernel.SOURCE)}")
    before = path.stat()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", "import repro.core.engine"], env=env, check=True)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def no_compiler(*args, **kwargs):
        raise AssertionError("the cached module was rebuilt")

    monkeypatch.setattr(kernel.subprocess, "run", no_compiler)
    assert kernel._build() == path


def test_key_covers_source_and_flags(monkeypatch):
    key = kernel._key(kernel.SOURCE)
    assert kernel._key(kernel.SOURCE + "\n/* changed */\n") != key
    assert kernel._key(kernel.SOURCE, kernel.CDEF + "\n") != key
    monkeypatch.setattr(kernel, "FLAGS", kernel.FLAGS + ["-O3"])
    assert kernel._key(kernel.SOURCE) != key


def test_failed_build_raises_with_compiler_output():
    with pytest.raises(ImportError, match="error: expected expression"):
        kernel._build("int broken(void) { return }", "int broken(void);")
    leftovers = [p for p in kernel._BUILD_DIR.iterdir() if p.is_dir()]
    assert leftovers == [], "a failed build left its temporary directory behind"
