"""The stdlib-only modules behave the same under Python 3.10, the oldest
version that ``pyproject.toml`` allows, as under the suite's interpreter.

``PROBE`` runs in a fresh interpreter.  It loads ``entsum.errors``,
``atomic``, ``dataset`` and ``esbm`` through a stand-in ``entsum`` package
whose ``__path__`` is the source directory, which skips ``__init__`` and so
numpy, and prints one JSON summary: the toy manifest, an ESBM tree, and the
outcome of parsing each of ``STATEMENTS``, which hold every escape and give
every ``MalformedLine`` reason a line can reach (a literal read from a line
cannot end in a lone backslash, so none dangles), the tokens of each of
``TOKEN_STRINGS`` and the two manifests' form tokens, the path every command
takes to its vocabulary.  The summary under 3.10 must equal the one under
the suite's interpreter.  No bytecode is written.  The test skips when no
3.10 interpreter runs.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import entsum
from entsum.dataset import load_manifest
from entsum.embeddings import manifest_vocabulary

from conftest import TOYMUSIC, build_esbm_tree

SOURCE = Path(entsum.__file__).parent

E = "<http://ex.org/e>"
P = "<http://ex.org/p>"
STATEMENTS = [
    # parsed: every escape, language tags, datatypes, blank nodes and spacing
    f'{E} {P} "t\\tb\\bn\\nr\\rf\\f q\\" a\\\' s\\\\ u\\u00e9 U\\U0001F600 \\uD7FF\\uE000" .',
    f'{E} {P} "caf\\u00E9"@en-GB .',
    f'{E} {P} "42"^^<http://www.w3.org/2001/XMLSchema#integer> .',
    f"_:b0 {P} {E} .",
    f" \t{E}\t{P}  _:x.y \t. \t",
    f"{E} {P} {E}.",
    f'{E} {P} "\\U0010FFFF" .',
    "# a comment",
    "",
    # one line per MalformedLine reason
    f"{E} {P}",
    f"<a b> {P} {E} .",
    f"_:-x {P} {E} .",
    f'{E} {P} "open .',
    f'{E} {P} "" .',
    f"{E} {P} ? .",
    f'"s" {P} {E} .',
    f"{E} _:p {E} .",
    f"{E} {P} {E}",
    f"{E} {P} {E} . extra",
    f'{E} {P} "x\\q" .',
    f'{E} {P} "x\\u12" .',
    f'{E} {P} "x\\u 041" .',
    f'{E} {P} "x\\U0000_041" .',
    f'{E} {P} "x\\uD800" .',
    f'{E} {P} "x\\U00110000" .',
]

# camel case, digit runs, separators only, the empty string, and letters
# outside ASCII, two of which lowercase to ASCII
TOKEN_STRINGS = ["birthPlace", "HTMLParser2Go", "top10Albums", "x2Y", "1998-05-01", "3rd",
                 "--", " _/#", "", "é", "İstanbul", "\u212aelvin", "naïveCafé", "aΣb"]

PROBE = """
import json, sys, types

source, toy_manifest, esbm_root, statements, token_strings = sys.argv[1:]
package = types.ModuleType("entsum")
package.__path__ = [source]
sys.modules["entsum"] = package
from entsum import atomic, dataset, errors, esbm


def manifest_summary(m):
    tokens = m.form_tokens
    return {
        "name": m.name,
        "form_tokens": [tokens.words, [[r.kind.value, r.raw, r.label] for r in tokens.resources],
                        list(tokens.counts), list(tokens.ids)],
        "entities": [
            [e.entity.raw,
             [[t.id, t.subject.raw, t.predicate.raw, t.val.kind.value, t.val.raw, t.val.label]
              for t in e.triples],
             {str(k): [[g.annotator, sorted(g.triple_ids)] for g in gs]
              for k, gs in e.gold.items()}]
            for e in m.entities
        ],
        "folds": [[f.index, f.train, f.valid, f.test] for f in m.folds],
    }


def parsed(line):
    try:
        return [[[t.kind.value, t.value, t.lang, t.datatype] for t in st.key()]
                for st in dataset.parse_statements([line])]
    except errors.MalformedLine as exc:
        return {"line_no": exc.line_no, "error": str(exc)}


print(json.dumps({
    "writer": atomic.atomic_writer.__name__,
    "toy": manifest_summary(dataset.load_manifest(toy_manifest)),
    "esbm": manifest_summary(esbm.load_esbm(esbm_root)),
    "statements": [parsed(line) for line in json.loads(statements)],
    "tokens": [dataset.tokenize(s) for s in json.loads(token_strings)],
}, sort_keys=True))
"""


def runs(exe: str, code: str, *args: str) -> subprocess.CompletedProcess | None:
    """``code`` run by ``exe`` with ``args``, isolated from the environment and
    writing no bytecode; None if it cannot start or takes over a minute."""
    try:
        return subprocess.run([exe, "-I", "-B", "-c", code, *args], capture_output=True,
                              text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None


def python_3_10() -> str | None:
    """The first interpreter that runs as 3.10: ``python3.10`` on ``PATH``,
    then ``$PYENV_ROOT/versions/3.10.*/bin/python``."""
    pyenv = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    candidates = [shutil.which("python3.10"),
                  *sorted(glob.glob(os.path.join(pyenv, "versions", "3.10.*", "bin", "python")))]
    for exe in filter(None, candidates):
        done = runs(exe, "import sys; print(sys.version_info[:2] == (3, 10))")
        if done is not None and done.stdout.strip() == "True":
            return exe
    return None


def summary(exe: str, esbm_root: Path) -> dict:
    done = runs(exe, PROBE, str(SOURCE), str(TOYMUSIC / "manifest.json"), str(esbm_root),
                json.dumps(STATEMENTS), json.dumps(TOKEN_STRINGS))
    assert done is not None and done.returncode == 0, done and done.stderr
    return json.loads(done.stdout)


def test_stdlib_modules_read_the_same_under_python_3_10(tmp_path):
    exe = python_3_10()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter runs here")
    build_esbm_tree(tmp_path / "esbm")
    here = summary(sys.executable, tmp_path / "esbm")
    assert here == summary(exe, tmp_path / "esbm")
    # seven statements parse, two lines are skipped, and each other line
    # fails for a reason of its own
    outcomes = here["statements"]
    assert [len(s) for s in outcomes[:9]] == [1] * 7 + [0, 0]
    assert len({s["error"] for s in outcomes[9:]}) == len(outcomes) - 9 == 16
    # a camel-case break needs a lowercase letter before the capital
    assert here["tokens"] == [["birth", "place"], ["htmlparser2go"], ["top10albums"], ["x2y"],
                              ["1998", "05", "01"], ["3rd"], [], [], [], [], ["stanbul"],
                              ["elvin"], ["na", "ve", "caf"], ["a", "b"]]
    assert set(here["toy"]["form_tokens"][0]) == set(manifest_vocabulary(load_manifest(
        TOYMUSIC / "manifest.json")))
