import pytest
from hypothesis import settings

from meronome import theorems
from meronome.frames import ElementStack, MeronomicElement

# One fixed profile for the whole suite: no wall-clock deadline flakes, and
# derandomized example generation so CI runs are reproducible.
settings.register_profile("repro", deadline=None, max_examples=25, derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def inject_elements(monkeypatch):
    """inject_elements(*elements) makes the theorem suites check the given group elements instead of drawn ones.

    It replaces theorems.random_m_elements, the suites' one source of elements.  Each split's trials take the
    elements given on that split, in trial order and cycled, and the identity where none was given.  The stacks
    are built with ElementStack.from_elements, unchecked, so tampered factors reach the checks; nothing is drawn
    from the stream.  The trial count restarts at 0 with each inject_elements call, so call it before each suite.
    """

    def inject(*elements):
        served = {}

        def sampler(split, n, rng):
            own = [elem for elem in elements if elem.split == split] or [MeronomicElement.identity(split)]
            start = served.get(split, 0)
            served[split] = start + n
            return ElementStack.from_elements([own[t % len(own)] for t in range(start, start + n)])

        monkeypatch.setattr(theorems, "random_m_elements", sampler)

    return inject
