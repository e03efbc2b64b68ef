"""The committed outputs against fresh runs of the commands: the golden
files of `golden.py` and the catalog sweep in `docs/catalog_sweep.md`."""

import pathlib
import sys

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


def _no_final_newline(monkeypatch):
    monkeypatch.setattr(cli, "_emit", lambda text, path: sys.stdout.write(text.rstrip("\n")))


def _decimal_comma(monkeypatch):
    real = cli._name_value
    monkeypatch.setattr(cli, "_name_value", lambda x: real(x).replace(".", ",", 1))


def _next_exponent_digit(monkeypatch):
    real = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda x: (s := real(x))[:-1] + str((int(s[-1]) + 1) % 10))


def _mark_check_lines(monkeypatch):
    real = cli.Check.line
    monkeypatch.setattr(cli.Check, "line", property(lambda c: real.fget(c) + "."))


@pytest.mark.parametrize("mutant,names", [
    (_flip_last_byte, [golden.DECOMPOSE, "table.txt", "table-csv.txt", "verify-un-3-md.txt"]),
    (_decimal_comma, ["einstein-u4.txt", "einstein-u4-md.txt"]),
    (_next_exponent_digit, ["einstein-u4.txt", "verify-un-3.txt", "einstein-so5-md.txt"]),
    (_no_final_newline, [golden.DECOMPOSE, "table.txt", "verify-un-4.txt"]),
    (_mark_check_lines, golden.MD),
])
def test_a_one_byte_change_to_a_renderer_fails_the_comparison(monkeypatch, mutant, names):
    # The last byte of every printed report, its final newline, one byte of
    # a number in a check name, one digit of every detail number, or one
    # byte more on every md check line: each golden file it reaches differs.
    mutant(monkeypatch)
    assert golden.differences(names) == names


def test_catalog_sweep_doc_is_the_table_output():
    # The SO8/Sp2xSp1 erratum makes `table` exit 1.
    code, out = golden.run(["table", "--format", "md"])
    assert code == 1 and out.endswith("mismatched 1\n")
    assert (ROOT / "docs" / "catalog_sweep.md").read_text(encoding="utf-8") == out
