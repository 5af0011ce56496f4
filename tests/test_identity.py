"""Byte-identity gate: every command of the identity corpus prints exactly
what it printed when `tests/identity_hashes.json` was generated."""

import json

import identity_corpus


def test_every_corpus_command_is_byte_identical():
    expected = json.loads(identity_corpus.HASHES.read_text(encoding="utf-8"))
    got = identity_corpus.compute_hashes()
    assert sorted(got) == sorted(expected), "the corpus commands changed; regenerate deliberately"
    changed = [argv for argv, digest in got.items() if expected[argv] != digest]
    assert not changed, f"{len(changed)} command(s) changed output, first: {changed[:5]}"
