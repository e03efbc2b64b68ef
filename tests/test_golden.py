"""The committed outputs against fresh runs of the commands: the golden
files of `golden.py` and the catalog sweep in `docs/catalog_sweep.md`."""

import pathlib

import pytest

import golden
from invconn import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_golden_outputs_equal_a_fresh_run():
    # `python tests/golden.py --write` rewrites the files.
    assert golden.differences() == []


def _flip_last_byte(monkeypatch):
    real = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda text, path: real(text[:-1] + chr(ord(text[-1]) ^ 1), path))


def _decimal_comma(monkeypatch):
    real = cli._name_value
    monkeypatch.setattr(cli, "_name_value", lambda x: real(x).replace(".", ",", 1))


@pytest.mark.parametrize("mutant,names", [
    (_flip_last_byte, [golden.DECOMPOSE, "table.txt"]),
    (_decimal_comma, ["einstein-u4.txt"]),
])
def test_a_one_byte_change_to_a_renderer_fails_the_comparison(monkeypatch, mutant, names):
    # The last byte of every printed report, or one byte of a number in a
    # check name: each golden file it reaches differs.
    mutant(monkeypatch)
    assert golden.differences(names) == names


def test_catalog_sweep_doc_is_the_table_output():
    # The SO8/Sp2xSp1 erratum makes `table` exit 1.
    code, out = golden.run(["table", "--format", "md"])
    assert code == 1 and out.endswith("mismatched 1\n")
    assert (ROOT / "docs" / "catalog_sweep.md").read_text(encoding="utf-8") == out
