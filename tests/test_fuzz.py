"""Seeded mutation fuzz over whole checkpoint files.

Each case takes a saved checkpoint and truncates it inside the header, at
the newline or inside the parameter bytes, flips bytes in the header or in
the parameter bytes, or appends junk.  Every mutant must either load as a
scorer whose parameters are finite and as many as its config needs, or raise
a ``DataError``.  Through ``entsum summarize`` it must end in exit 0 or 2
without a traceback; exit 3 is the one other outcome, for parameters that
load finite but overflow a score.
"""

import random

import numpy as np
import pytest

from entsum import cli
from entsum.errors import DataError
from entsum.model import ModelConfig, TripleScorer, load_checkpoint, save_checkpoint

from conftest import ARIA, TOYMUSIC

CASES = 240
KINDS = ("cut-header", "cut-newline", "cut-blob", "flip-header", "flip-blob", "append")


def mutant(data: bytes, case: int) -> tuple[str, bytes]:
    """The kind and bytes of mutation ``case`` of checkpoint ``data``."""
    rng = random.Random(case)
    cut = data.index(b"\n")
    kind = KINDS[case % len(KINDS)]
    if kind == "cut-header":
        return kind, data[:rng.randrange(cut)]
    if kind == "cut-newline":
        return kind, data[:cut + rng.randrange(-1, 3)]
    if kind == "cut-blob":
        return kind, data[:rng.randrange(cut + 2, len(data))]
    if kind == "append":
        return kind, data + rng.randbytes(rng.randrange(1, 17))
    lo, hi = (0, cut + 1) if kind == "flip-header" else (cut + 1, len(data))
    out = bytearray(data)
    for _ in range(rng.randrange(1, 4)):
        out[rng.randrange(lo, hi)] ^= rng.randrange(1, 256)
    return kind, bytes(out)


@pytest.fixture(scope="module")
def saved(tmp_path_factory) -> bytes:
    config = ModelConfig(embed_dim=4, candidate_hidden=(8, 8), context_hidden=(8, 8),
                         scoring_hidden=(8, 8, 8), seed=3)
    path = tmp_path_factory.mktemp("fuzz") / "fold0.ckpt"
    save_checkpoint(TripleScorer.create(config), path,
                    meta={"chosen_epoch": 4, "fold": 0, "k": 2})
    return path.read_bytes()


def test_mutated_checkpoints_load_or_raise_data_errors(saved, tmp_path):
    path = tmp_path / "fold0.ckpt"
    outcomes = set()
    for case in range(CASES):
        kind, data = mutant(saved, case)
        path.write_bytes(data)
        try:
            model, _ = load_checkpoint(path)
        except DataError:
            outcomes.add((kind, "refused"))
            continue
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
        assert np.isfinite(model.flat).all(), (case, kind)
        assert model.flat.size == model.config.parameter_count, (case, kind)
        outcomes.add((kind, "loaded"))
    # every kind was tried, and both outcomes happen
    assert {kind for kind, _ in outcomes} == set(KINDS)
    assert {"loaded", "refused"} <= {outcome for _, outcome in outcomes}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a flipped exponent overflows
def test_summarize_on_mutated_checkpoints_exits_cleanly(saved, tmp_path, capsys):
    path = tmp_path / "fold0.ckpt"
    args = ["summarize", "--manifest", str(TOYMUSIC / "manifest.json"),
            "--vectors", str(TOYMUSIC / "toy.vec"), "--k", "2",
            "--checkpoint", str(path), "--entity", ARIA]
    codes = set()
    for case in range(CASES):
        kind, data = mutant(saved, case)
        path.write_bytes(data)
        try:
            rc = cli.main(args)
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
        out, err = capsys.readouterr()
        assert "Traceback" not in err, (case, kind, err)
        if rc == 0:
            assert out.startswith(f"{ARIA}: top 2 of "), (case, kind, out)
        else:
            prefix = {2: "error:", 3: "numeric error:"}.get(rc)
            assert prefix and err.startswith(prefix) and out == "", (case, kind, rc, err)
        codes.add(rc)
    assert {0, 2} <= codes
