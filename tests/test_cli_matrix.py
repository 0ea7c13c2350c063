"""The CLI matrix's outputs, byte for byte: every entry of ``cli_matrix.json``
(written by ``record_cli_matrix.py``) re-run and compared."""

import json

import pytest

from record_cli_matrix import ENTRIES, MANIFEST, run_entry

PINNED = json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_matrix")


def test_manifest_lists_the_matrix():
    assert sorted(PINNED) == sorted(ENTRIES)


@pytest.mark.parametrize("entry", ENTRIES)
def test_cli_outputs_pinned(matrix_dir, entry):
    assert run_entry(entry, matrix_dir) == PINNED[entry]
