"""EXPERIMENTS.md quotes the benchmark printouts verbatim.

Every fenced code block in EXPERIMENTS.md belongs to the last
``results/<id>.txt`` named before it, and must be a run of whole lines
of that printout; every printout in ``benchmarks/results`` must be
quoted by at least one block.  A printout that moves without its quote
(or a quote edited by hand) fails here.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
_PRINTOUT = re.compile(r"results/(\w+\.txt)")


def quoted_blocks(text: str) -> list[tuple[str | None, str]]:
    """(printout name, block text) for every fenced block of ``text``."""
    blocks = []
    for match in _FENCE.finditer(text):
        named = _PRINTOUT.findall(text[: match.start()])
        blocks.append((named[-1] if named else None, match.group(1)))
    return blocks


def is_quote_of(block: str, printout: str) -> bool:
    """Whether ``block`` is a run of whole lines of ``printout``."""
    return "\n" + block in "\n" + printout


def test_every_block_is_a_run_of_its_printout():
    blocks = quoted_blocks((ROOT / "EXPERIMENTS.md").read_text())
    assert blocks
    for name, block in blocks:
        assert name is not None, f"block names no printout:\n{block}"
        printout = (RESULTS / name).read_text()
        assert is_quote_of(block, printout), f"stale quote of {name}:\n{block}"


def test_every_printout_is_quoted():
    quoted = {name for name, _ in quoted_blocks((ROOT / "EXPERIMENTS.md").read_text())}
    assert quoted == {path.name for path in RESULTS.glob("*.txt")}


def test_a_changed_number_is_not_a_quote():
    printout = "head\n  C1   1.00x\n  C2   2.00x\n"
    assert is_quote_of("  C1   1.00x\n  C2   2.00x\n", printout)
    assert not is_quote_of("  C1   1.01x\n", printout)
    assert not is_quote_of("C1   1.00x\n", printout)  # a line's tail only
    assert not is_quote_of("  C1   1.00x\n  C3   2.00x\n", printout)
