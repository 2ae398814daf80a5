"""The atomic text-file writer every gpshop output goes through.

A leaf module, so that the simulator and the GP engine can use it
without importing ``records``, which imports them; ``records``
re-exports it.
"""
from __future__ import annotations

import os


def write_text_atomic(path: str, text: str) -> None:
    """Write-then-rename so a killed process never leaves a partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
