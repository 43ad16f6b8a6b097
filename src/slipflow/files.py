"""Artifact files: each one is written as a new file at its path.

The old path is unlinked first, so a symlink there is replaced rather
than followed, and a hard link elsewhere keeps the old content.  Nothing
is fsynced.  On ext4 with its default auto_da_alloc, truncating a file
that was just written, or renaming a new file over it, waits until the
old content is written back (up to about 0.3 s for four files, one of
1 MB, on a busy disk); a new file's pages stay in the page cache, and
are dropped if the next run unlinks it first.
"""

import contextlib
import os


def remove(path):
    """Unlink path if it exists."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


@contextlib.contextmanager
def new_file(path):
    """Text handle of a new file at path, which replaces the old one."""
    remove(path)
    with open(path, "x") as fh:
        yield fh


def write_rows(fh, table, fmt):
    """Write each row of a 2D table through one printf-style row format."""
    fh.write((fmt + "\n") * len(table) % tuple(table.ravel().tolist()))
