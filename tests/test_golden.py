"""Compile outputs stay byte for byte those recorded in the golden file."""

from golden_cli import GOLDEN, golden_lines


def test_cli_outputs_match_golden_file():
    want = GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    changed = [f"- {w}\n+ {g}" for w, g in zip(want, got) if w != g]
    assert not changed, f"{len(changed)} changed:\n" + "\n".join(changed)
