import hypothesis
import pytest

from zfcantor import analysis

hypothesis.settings.register_profile(
    "pkg", deadline=None, derandomize=True, max_examples=80
)
hypothesis.settings.load_profile("pkg")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the calls to the pair-table build and the Cantor search.

    One analysis runs the search at most once, a verdict or witness alone
    builds no pair table, and a witness extraction builds it at most once.
    """
    calls = {"pair_table": 0, "find_surjection": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(analysis, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(analysis, name, counted)
    return calls
