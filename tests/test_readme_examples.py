"""Golden test for the `tetra ...` command examples in README.md.

Each example runs in-process through ``tetra.cli.run``; its stdout, stderr
and exit code must equal the record in ``tests/golden/readme_cli.json``.
The `verify` example reads the solution file that the first `interp`
example writes.  After a deliberate change of CLI output, rewrite the
golden file with ``PYTHONPATH=src python tests/test_readme_examples.py``,
which first prints a diff of each example whose record changed, and name
the change in CHANGES.md.
"""
import contextlib
import difflib
import io
import json
import shlex
import sys
from pathlib import Path

from tetra.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_cli.json"


def readme_examples() -> list[str]:
    """Every `tetra ...` line of README.md's shell blocks, comments cut."""
    lines, in_sh = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("tetra "):
            lines.append(shlex.join(shlex.split(line, comments=True)))
    return lines


def run_examples(workdir: Path) -> dict:
    """{example: {"code", "stdout", "stderr"}} in README order."""
    solution = workdir / "solution.json"
    records = {}
    for example in readme_examples():
        argv = shlex.split(example)[1:]
        argv = [str(solution) if a == "solution.json" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        if argv[0] == "interp" and not solution.exists():
            solution.write_text(out.getvalue())
        records[example] = {
            "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
        }
    return records


def test_readme_lists_the_examples():
    commands = {shlex.split(e)[1] for e in readme_examples()}
    assert commands == {
        "member", "dist", "interp", "mu", "synth", "boundary", "auto", "verify",
    }


def test_readme_examples_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_examples(tmp_path)
    assert list(got) == list(golden)
    for example, record in golden.items():
        assert got[example] == record, example


def golden_diff(old: dict, new: dict) -> str:
    """A unified diff of stdout and stderr, and a note on the exit code, for
    each example whose record differs between ``old`` and ``new``."""
    out = []
    for example in dict.fromkeys([*old, *new]):
        a, b = old.get(example, {}), new.get(example, {})
        if a == b:
            continue
        out.append(f"== {example}\n")
        if a.get("code") != b.get("code"):
            out.append(f"code: {a.get('code')} -> {b.get('code')}\n")
        for stream in ("stdout", "stderr"):
            out += difflib.unified_diff(
                a.get(stream, "").splitlines(keepends=True),
                b.get(stream, "").splitlines(keepends=True),
                f"golden {stream}", f"new {stream}",
            )
    return "".join(out)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = run_examples(Path(tmp))
    if GOLDEN.is_file():
        sys.stdout.write(golden_diff(json.loads(GOLDEN.read_text()), records))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(records)} examples to {GOLDEN}\n")
