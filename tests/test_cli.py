"""The ``mizv`` command line: one article in, sorted error lines and an
exit status out."""

import os

from micromizar.cli import main
from micromizar.prechecker import Prechecker

ENVIRON = "environ requirements BOOLE, SUBSET, NUMERALS, REAL, ARITHM;\nbegin\n"


def run(tmp_path, corpus_dir, text: str) -> int:
    path = tmp_path / "a.miz"
    path.write_text(text, encoding="utf-8")
    return main([str(path), "--requirements", os.path.join(corpus_dir, "requirements.txt")])


def test_a_clean_article_prints_nothing_and_exits_0(tmp_path, corpus_dir, capsys):
    assert run(tmp_path, corpus_dir, ENVIRON + "theorem 1 + 1 = 2;\ntheorem {} c= {};\n") == 0
    assert capsys.readouterr().out == ""


def test_errors_print_sorted_by_position_and_exit_1(tmp_path, corpus_dir, capsys):
    text = ENVIRON + "theorem 1 = 2;\ntheorem 1 = 1 by Nope;\ntheorem 1 = ;\n  theorem 2 = 1;\n"
    assert run(tmp_path, corpus_dir, text) == 1
    assert capsys.readouterr().out.splitlines() == [
        "3:1 61 Inference not accepted by the checker",
        "4:18 91 Unknown identifier",
        "5:13 90 Syntax error",
        "6:3 61 Inference not accepted by the checker",
    ]


def test_a_missing_group_or_file_exits_2(tmp_path, corpus_dir, capsys):
    assert run(tmp_path, corpus_dir, "environ requirements NOSUCH;\nbegin\ntheorem 1 = 1;\n") == 2
    assert "NOSUCH" in capsys.readouterr().err
    assert main([str(tmp_path / "absent.miz"), "--requirements", os.path.join(corpus_dir, "requirements.txt")]) == 2
    assert "absent.miz" in capsys.readouterr().err


def test_a_checker_fault_prints_its_cause_to_stderr(tmp_path, corpus_dir, capsys, monkeypatch):
    def faulty(self, *args):
        raise RuntimeError("injected")

    monkeypatch.setattr(Prechecker, "justify", faulty)
    assert run(tmp_path, corpus_dir, ENVIRON + "theorem 1 = 1;\n") == 1
    out, err = capsys.readouterr()
    assert out == "3:1 99 Internal error while checking this item\n"
    assert err.startswith("mizv: internal error at 3:1: RuntimeError('injected') at test_cli.py:")
    assert err.endswith(" in faulty\n")
