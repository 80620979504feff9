"""Every command of the golden panel writes the bytes its manifest records."""

import pytest

import golden

MANIFEST = golden.load()
CONTEXT = golden.context()


def test_manifest_lists_the_panel():
    assert list(MANIFEST["commands"]) == list(golden.COMMANDS)


@pytest.mark.parametrize("line", golden.COMMANDS)
def test_command_writes_its_golden_bytes(line):
    # the digests hold for the numpy and BLAS they were written with; any
    # other context fails here and says which
    moved = {k: (v, CONTEXT[k]) for k, v in MANIFEST["context"].items()
             if CONTEXT[k] != v}
    assert not moved, f"context differs from the manifest's (was, is): {moved}"
    expected, got = MANIFEST["commands"][line], golden.record(line.split())
    for part in ("csv", "json"):
        if expected[part] is not None and got[part] is not None:
            assert list(got[part]) == list(expected[part]), f"{part} names"
            changed = [k for k in expected[part] if got[part][k] != expected[part][k]]
            assert not changed, f"{part} entries moved: {changed}"
    assert got == expected
