"""Family 2: handler exhaustiveness over the MsgType vocabulary."""

import shutil

import pytest

from repro.analysis import analyze_dispatch, default_root
from repro.errors import AnalysisError
from repro.net.message import MsgType


@pytest.fixture()
def tree(tmp_path):
    """A scratch copy of the real package tree, safe to mutate."""
    root = tmp_path / "repro"
    shutil.copytree(default_root(), root)
    return root


def edit(root, rel, old, new):
    path = root / rel
    text = path.read_text()
    assert old in text, f"mutation pattern drifted out of {rel}: {old!r}"
    path.write_text(text.replace(old, new))


def test_shipped_dispatch_is_exhaustive():
    assert analyze_dispatch(default_root()) == []


def test_declarations_match_runtime_enum():
    # The AST-read enum members must be the real ones, or the whole
    # analysis is checking a phantom vocabulary.
    from repro.analysis.dispatch import enum_members

    names = {
        name for name, _ in enum_members(default_root() / "net" / "message.py")
    }
    assert names == {m.name for m in MsgType}


def test_missing_participant_handler_is_flagged(tree):
    # Every participant-side engine declares DECISION, so it must vanish
    # from all of them before the type becomes unreceivable.
    for rel in (
        "commit/participant.py", "protocols/paxos.py", "protocols/short.py",
    ):
        edit(tree, rel, 'MsgType.DECISION: "_handle_decision",\n', "")
    findings = analyze_dispatch(tree)
    assert [f.rule for f in findings] == ["dispatch/missing-handler"]
    assert "MsgType.DECISION" in findings[0].message
    assert findings[0].location.startswith("message.py:")


def test_new_msg_type_without_handler_is_flagged(tree):
    edit(
        tree, "net/message.py",
        'ACK = "ACK"', 'ACK = "ACK"\n    INQUIRE = "INQUIRE"',
    )
    findings = analyze_dispatch(tree)
    assert [f.rule for f in findings] == ["dispatch/missing-handler"]
    assert "MsgType.INQUIRE" in findings[0].message


def test_missing_declaration_is_an_analysis_error(tree):
    edit(tree, "commit/participant.py", "_HANDLERS", "_RENAMED")
    with pytest.raises(AnalysisError):
        analyze_dispatch(tree)
