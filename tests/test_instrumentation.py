"""The benchmark's span recorder finds every name it wraps.

perfbench/spans.py replaces functions in the namespace their callers look
them up in, and reads each original from its owner's own __dict__: a name
that a module stops importing, or a method that moves to a base class,
makes the recorder raise KeyError and the traced benchmark fail.
"""

import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
WRAPPED = list(dict.fromkeys((t[0], t[1])
                             for t in spans.FULL + spans.TIMERS))


@pytest.mark.parametrize("owner,attr", WRAPPED,
                         ids=["%s.%s" % (o.__name__, a) for o, a in WRAPPED])
def test_wrapped_name_is_the_owners_own(owner, attr):
    assert attr in owner.__dict__


def test_recorder_restores_every_original():
    targets = spans.FULL + spans.TIMERS
    before = [t[0].__dict__[t[1]] for t in targets]
    with spans.Recorder(targets):
        pass
    assert [t[0].__dict__[t[1]] for t in targets] == before
