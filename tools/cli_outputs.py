"""Byte-identity manifest of the rankfill CLI.

Runs ``rankfill.cli.main`` in-process on four fixed reference instances:
``gen``, ``invert --path svd|direct|general``, then ``check`` and ``det``
on the problem file and on every inverted file.  Every written file and
every captured stdout is kept in DIRECTORY, and one line
``sha256  name  exit_code`` is printed per stdout capture and per written
file, sorted by name; a written file carries the exit code of the command
that wrote it.  Two runs, or two versions of the program, produce
byte-identical CLI output when their manifests are equal, and the kept
captures show where they differ:

    PYTHONPATH=src python tools/cli_outputs.py DIRECTORY > manifest.txt

Commands run with DIRECTORY as the working directory and relative paths,
so reports that echo a path read the same whatever DIRECTORY is.  stderr
is discarded; a failed command shows in its exit code.
"""

import contextlib
import hashlib
import io
import os
import sys

from rankfill.cli import main as rankfill_main

INSTANCES = {
    "real": ["--n", "120", "--k", "3", "--seed", "5"],
    "complex": ["--n", "60", "--k", "2", "--seed", "6", "--field", "complex",
                "--coupling", "0.9"],
    "hard": ["--n", "180", "--k", "2", "--seed", "15", "--spread", "1e4",
             "--coupling", "0.9"],
    # The only instance whose invert reassembles across several row blocks.
    "blocked": ["--n", "300", "--k", "4", "--seed", "8"],
}
PATHS = ("svd", "direct", "general")


def _run(argv, stdout_name):
    """Run one command; keep its stdout as ``stdout_name``, return the exit code."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
        code = rankfill_main(argv)
    with open(stdout_name, "w") as fh:
        fh.write(captured.getvalue())
    return code


def _commands(label, spec):
    """(argv, stdout name, written file or None) for one instance, in order."""
    problem = f"{label}.json"
    yield ["gen", *spec, "--out", problem], f"{label}.gen.stdout", problem
    stems = [label]
    for path in PATHS:
        stem = f"{label}.{path}"
        stems.append(stem)
        yield (["invert", problem, "--path", path, "--out", f"{stem}.json"],
               f"{stem}.invert.stdout", f"{stem}.json")
    for stem in stems:
        for command in ("check", "det"):
            yield [command, f"{stem}.json"], f"{stem}.{command}.stdout", None


def manifest(directory):
    """Run every command in ``directory``; return the sorted manifest lines."""
    os.makedirs(directory, exist_ok=True)
    exit_codes = {}
    start = os.getcwd()
    os.chdir(directory)
    try:
        for label, spec in INSTANCES.items():
            for argv, stdout_name, written in _commands(label, spec):
                code = _run(argv, stdout_name)
                exit_codes[stdout_name] = code
                if written is not None and os.path.exists(written):
                    exit_codes[written] = code
        lines = []
        for name in sorted(exit_codes):
            with open(name, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {name}  {exit_codes[name]}")
        return lines
    finally:
        os.chdir(start)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: cli_outputs.py DIRECTORY", file=sys.stderr)
        return 2
    for line in manifest(argv[0]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
