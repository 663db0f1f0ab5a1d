"""Bundled executable corpus: the div() kata session and the max programs."""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def corpus_path(name: str) -> Path:
    """Filesystem path of a bundled corpus file (e.g. "div.session")."""
    path = Path(str(resources.files(__package__).joinpath(name)))
    if not path.is_file():
        raise FileNotFoundError(f"no corpus file named {name!r}")
    return path
