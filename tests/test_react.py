import pytest

from phonesim.errors import MalformedAction
from phonesim.react import format_step, parse_step


def test_parse_happy_path():
    text = ('Thought: check the inbox first\nAction:\n'
            '{"action": "EmailApp__list_emails", "action_input": {"folder": "inbox"}}\n'
            '<end_action>')
    step = parse_step(text)
    assert step.thought == "check the inbox first"
    assert step.action == "EmailApp__list_emails"
    assert step.action_input == {"folder": "inbox"}


def test_format_parse_roundtrip():
    text = format_step("CabApp__order_ride", {"service_type": "pool"}, thought="go")
    step = parse_step(text)
    assert (step.action, step.action_input) == ("CabApp__order_ride", {"service_type": "pool"})
    assert step.thought == "go"


def test_missing_terminator_rejected():
    with pytest.raises(MalformedAction):
        parse_step('{"action": "noop", "action_input": {}}')


def test_two_actions_rejected():
    text = ('{"action": "noop", "action_input": {}}\n'
            '{"action": "noop", "action_input": {}}\n<end_action>')
    with pytest.raises(MalformedAction):
        parse_step(text)


def test_action_after_terminator_ignored():
    text = ('{"action": "noop", "action_input": {}}\n<end_action>\n'
            '{"action": "extra", "action_input": {}}')
    assert parse_step(text).action == "noop"


def test_nested_objects_in_input_are_not_extra_actions():
    text = ('{"action": "a__b", "action_input": {"inner": {"action": "decoy"}}}\n'
            '<end_action>')
    step = parse_step(text)
    assert step.action == "a__b"
    assert step.action_input["inner"] == {"action": "decoy"}


def test_malformed_objects_rejected():
    with pytest.raises(MalformedAction):
        parse_step("no json here <end_action>")
    with pytest.raises(MalformedAction):
        parse_step('{"action": "", "action_input": {}}<end_action>')
    with pytest.raises(MalformedAction):
        parse_step('{"action": "x", "action_input": []}<end_action>')
    with pytest.raises(MalformedAction):
        parse_step('{"action": "x", "action_input": {}, "zz": 1}<end_action>')


def test_an_action_after_a_stray_brace_is_found():
    text = ('Thought: the subject says {urgent and {"note": 1} is no action\nAction:\n'
            '{"action": "a__b", "action_input": {"x": "}{"}}\n<end_action>')
    step = parse_step(text)
    assert (step.action, step.action_input) == ("a__b", {"x": "}{"})
    assert step.thought == 'the subject says {urgent and {"note": 1} is no action'


def test_two_actions_after_a_stray_brace_are_rejected():
    text = ('{ oops {"action": "noop", "action_input": {}} '
            '{"action": "noop", "action_input": {}}<end_action>')
    with pytest.raises(MalformedAction, match="exactly one action"):
        parse_step(text)
