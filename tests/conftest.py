import pytest


@pytest.fixture
def evolved_pairs(monkeypatch):
    """The generator slots that go through the Magnus engine, one list per
    call, in order."""
    import rbaddr.noise as noise

    batches = []
    engine = noise.evolve_to_ptms

    def counting(p, slots, steps):
        batches.append(list(slots))
        return engine(p, slots, steps)

    monkeypatch.setattr(noise, "evolve_to_ptms", counting)
    return batches
