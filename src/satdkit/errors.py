"""Exception hierarchy shared across the package, and the one reader and
the one writer of data files.

The three concrete classes map onto the CLI exit codes: ConfigError -> 1,
DataError -> 2, RunError -> 3. ``read_input`` reads every input file as UTF-8
without a leading byte-order mark, keeping line ends as written. A file that
is missing, unreadable (a directory, say) or not UTF-8 is one DataError naming
its role and path, raised before any parsing; the config file re-raises it as
a ConfigError. ``read_lines`` ends the lines of the seven line-oriented inputs
(config, manifest, label mapping, base vocabulary, denylist, lexicons and
predictions) at LF, CR LF and CR only: a form feed or U+2028 stays in its line.

``write_output`` writes every output file (reports, run logs, manifests,
batch exports, vocabularies, candidate reports) whole or not at all, making
its parent directories and keeping line ends exactly as given.
"""

import os
import secrets
from pathlib import Path
from typing import Iterable


class SatdkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SatdkitError):
    """Invalid experiment configuration or config-style file."""


class DataError(SatdkitError):
    """Invalid or inconsistent input data (corpora, vocabularies, predictions)."""


class RunError(SatdkitError):
    """Failure while executing a training run or writing its outputs."""


def read_input(path: str | Path, role: str) -> str:
    """The text of the input file at ``path``; ``role`` names it in errors."""
    try:
        with Path(path).open(encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DataError(f"{role} not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {role} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {role} {path}: not UTF-8 ({exc.reason})") from None


def read_lines(path: str | Path, role: str) -> list[str]:
    """The lines of the input file at ``path``; a final line end adds no empty line."""
    lines = read_input(path, role).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def write_output(path: str | Path, parts: Iterable[str]) -> int:
    """Write the joined ``parts`` to ``path`` atomically; returns the part count."""
    # A fresh, exclusively created temp name per write, so runs with the same
    # digest never share one; unlike mkstemp's 0600 files it honors the umask.
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    count = 0
    try:
        with tmp.open("x", encoding="utf-8", newline="") as fh:
            for count, part in enumerate(parts, start=1):
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count
