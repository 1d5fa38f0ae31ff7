"""Every mutant of ``mutants.py`` still applies: its old text occurs once in its file, and its new text differs.

``mutants.py`` refuses a mutant that does not apply, but it runs tier-1 once
per mutant and takes minutes. This check takes milliseconds, so an edit of
a listed line fails tier-1 at once; the edit then updates its mutant.
"""

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_once():
    stale = [m for m in MUTANTS if m.new == m.old or (ROOT / m.file).read_text().count(m.old) != 1]
    assert not stale, [f"{m.file}: {m.why}" for m in stale]
