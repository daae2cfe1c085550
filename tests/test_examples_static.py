"""Every bundled figure network passes the static gates.

Parametrized over the ``repro lint`` figure targets: the full pass (AST
rules + race detection + graph construction rules + deadlock and
boundedness proofs) must exit cleanly for every network the CLI can
build.
"""

import pytest

from repro.cli import CHECKABLE, main

#: networks whose feedback loops the static pass proves bounded; the
#: others (hamming's OrderedMerge, fig13's modulo imbalance) are genuinely
#: unbounded at fixed capacities and must stay unproved
PROVED_BOUNDED = {"fibonacci", "primes", "newton"}


@pytest.mark.parametrize("which", CHECKABLE)
def test_check_strict_passes(which, capsys):
    assert main(["lint", which]) == 0
    out = capsys.readouterr().out
    assert "error" not in out


@pytest.mark.parametrize("which", CHECKABLE)
def test_lint_passes(which, capsys):
    assert main(["lint", which]) == 0
    out = capsys.readouterr().out
    if which in PROVED_BOUNDED:
        assert "proved-bounded" in out
    else:
        assert "cycle-unproved" in out


@pytest.mark.parametrize("which", sorted(PROVED_BOUNDED))
def test_proof_discharges_blanket_cycle_flag(which, capsys):
    assert main(["lint", which]) == 0
    out = capsys.readouterr().out
    assert "cycle-unproved" not in out
    # a discharged proof replaces the blanket flag (primes is acyclic:
    # its proof is section 3.5's own)
    assert "proved-bounded" in out or "graph is clean" in out
