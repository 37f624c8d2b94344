"""Byte-identity of the CLI transcripts: every case of
`golden_transcripts.CASES` must reproduce its committed file exactly."""

import pytest

from golden_transcripts import CASES, GOLDEN_DIR, transcript


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_transcript_matches_golden(case):
    golden = (GOLDEN_DIR / f"{case.name}.txt").read_text(encoding="utf-8")
    assert transcript(case) == golden


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(c.name for c in CASES)
