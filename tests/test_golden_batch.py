"""A fixed batch corpus must keep producing its recorded output byte for byte.

``data/golden_batch.jsonl`` covers every command, every compute_aut branch,
the Z, Q and GF(p) rings, both kinds of ``all_witnesses`` record, and an
error record for each error code the CLI can emit, malformed lines
included.  ``data/golden_batch.out`` is its recorded ``ideal-aut batch``
output; refactors of the pipeline must leave it unchanged.
"""

from pathlib import Path

from idealaut import cli

DATA = Path(__file__).parent / "data"


def test_golden_batch_output_is_unchanged(capsys):
    code = cli.main(["batch", str(DATA / "golden_batch.jsonl")])
    out = capsys.readouterr().out
    assert out == (DATA / "golden_batch.out").read_text(encoding="utf-8")
    assert code == cli.EXIT_PRECONDITION  # the first failing line is a bounds error
