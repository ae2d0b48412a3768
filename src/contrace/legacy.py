"""upgrade: rewrite a store's columnar format version 2 files as version 3.
Only `contrace upgrade` imports this module.

upgrade keeps one generation back: a store written before <kind>-<id>
names, or with files of columnar format version 1, is refused here as by
every read and writer (columnar.refused), and nothing converts it.

upgrade holds the writer lock. It first lists every segment and peeks at
each columnar file's version, so an old file stops it before any file
changes. Then it loads and checks each version 2 file whole and replaces
it by its version 3 file, one os.replace per file. Each replace is atomic,
so a rerun completes an upgrade that was cut. NDJSON segments, and temp
files of a cut seal, are left to the next writer's recovery.
"""

from __future__ import annotations

from pathlib import Path

from .columnar import _ITEMSIZES, _JSON_COLUMN, SUFFIX, Segment, _Corrupt, old_version, refused
from .records import StoreError
from .store import RecordStore, _lock, _write_columns


class _Version2(Segment):
    """A version 2 file: the blocks of version 3 (see columnar), but each
    column stored as it is, array.tobytes() or JSON, with the spec
    [typecode, bytes]. It is read by the checks of version 3."""

    __slots__ = ()
    version = 2
    _SPEC_FIELDS = 2  # [typecode, bytes]

    def _check_spec(self, name: str, spec: list, count: int) -> None:
        if spec[0] != _JSON_COLUMN and spec[1] % _ITEMSIZES[spec[0]]:
            raise _Corrupt(f"column {name}: partial item")

    def _values(self, name: str, spec: tuple, stored):
        return self._column(name, spec[0], stored)


def upgrade(path: str | Path) -> str:
    """Rewrite the store at path as the module docstring says, and say what
    changed. A store of version 3 files alone is left as it is."""
    path = Path(path)
    if not path.is_dir():
        raise StoreError(f"{path}: no store there")
    with _lock(path):
        old = []
        for kind, stems in RecordStore(path)._scan().items():
            for stem in stems:
                file = stem.paths.get(SUFFIX)
                version = file and old_version(file)
                if version == 2:
                    old.append((kind, stem.stem, file))
                elif version:
                    raise refused(file, version)
        for kind, stem, file in old:
            segment = _Version2.load(file, kind)
            segment.check()
            if None in segment.keys:
                raise StoreError(f"{file}: path {segment.keys.index(None)}: no block uses it")
            _write_columns(path, stem, segment)
    return f"upgraded {path}: version 2 files rewritten {len(old)}"
