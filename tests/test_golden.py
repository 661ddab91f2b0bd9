"""Golden outputs: every file and every stdout the command line writes on
both presets, compared byte for byte with the digests in
``golden_outputs.json``.

Each run goes through ``cli.main`` in-process: ``spectrum``,
``free-energy`` and ``pressure`` at ``--cap 60 --beta-steps 5`` as CSV and
as JSON, ``delta --cap 60``, ``validate``, and ``code`` at a few points.
The ``created`` timestamp is dropped from every header, and the output
directory is replaced by ``<out>`` in stdout; what is left is hashed with
SHA-256, one digest per output.  A change that moves an output on purpose
rewrites the digest file, and prints the keys whose digests it changed,
with

    python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_outputs.json"
PRESETS = ("gamma2-type", "one-cusp-one-hyperbolic")
POINTS = ("2.41421356", "2.5", "3", "0.25", "0", "-1", "0.3")
GRID = ["--cap", "60", "--beta-steps", "5"]
CREATED = re.compile(r'^(# created = |\s*"created": )')


def runs():
    """(name, argv, whether the command writes files) of each run."""
    for preset in PRESETS:
        for command in ("spectrum", "free-energy", "pressure"):
            for fmt in ("csv", "json"):
                yield ("%s/%s-%s" % (preset, command, fmt),
                       [command, "--preset", preset, *GRID, "--format", fmt],
                       True)
        yield ("%s/delta" % preset,
               ["delta", "--preset", preset, "--cap", "60"], True)
        yield "%s/validate" % preset, ["validate", "--preset", preset], False
        for point in POINTS:
            yield ("%s/code-%s" % (preset, point),
                   ["code", "--preset", preset, "--point=" + point], False)


def without_created(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not CREATED.match(line))


def digests(tmp: pathlib.Path) -> dict:
    """SHA-256 of each output of ``runs``, keyed by run and file name."""
    from cuspwind import cli

    out = {}
    for name, argv, writes in runs():
        out_dir = tmp / name
        if writes:
            argv = argv + ["--out", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        texts = {"stdout": "exit %d\n%s--- stderr\n%s" % (
            rc, stdout.getvalue().replace(str(out_dir), "<out>"),
            stderr.getvalue())}
        if writes:
            for path in sorted(out_dir.iterdir()):
                texts[path.name] = without_created(
                    path.read_text(encoding="utf-8"))
        for key, text in texts.items():
            out[name + "/" + key] = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
    return out


def changed_keys(got: dict) -> list:
    """The keys whose digests in ``got`` differ from the golden ones, or
    that only one of the two has."""
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return sorted(key for key in got.keys() | want.keys()
                  if got.get(key) != want.get(key))


def test_outputs_match_the_golden_digests(tmp_path):
    changed = changed_keys(digests(tmp_path))
    assert not changed, "outputs changed: " + ", ".join(changed)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(pathlib.Path(tmp))
    for key in changed_keys(table):
        print("changed:", key)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print("%d digests written to %s" % (len(table), GOLDEN))
