import numpy as np
import pytest

from bubblelab import detect_interfaces, equal_volume_standard, standard_of_curvature
from bubblelab import gallery, sampling


@pytest.fixture
def draws(monkeypatch):
    """The address and size (seed, label, chunk, count, dim) of every chunk
    the test draws, in order of request: each sampling.unit_blocks stream it
    opens, the one draw path, which sampling.draw_unit_chunk runs too."""
    calls = []
    blocks = sampling.unit_blocks

    def counted(*args):
        calls.append(args)
        return blocks(*args)

    monkeypatch.setattr(sampling, "unit_blocks", counted)
    return calls


@pytest.fixture(scope="session")
def equal_bubble_s2():
    return equal_volume_standard(2, 3)


@pytest.fixture(scope="session")
def equal_bubble_graph(equal_bubble_s2):
    return detect_interfaces(equal_bubble_s2)


@pytest.fixture(scope="session")
def hemispheres():
    return equal_volume_standard(2, 2)


@pytest.fixture(scope="session")
def skew_bubble_s2():
    return standard_of_curvature(2, 3, np.array([0.3, 0.1, -0.4]))


@pytest.fixture(scope="session")
def skew_bubble_graph(skew_bubble_s2):
    return detect_interfaces(skew_bubble_s2)


@pytest.fixture(scope="session")
def band_cluster():
    return gallery.band_stack(4, (-0.5, 0.1, 0.55))


@pytest.fixture(scope="session")
def band_graph(band_cluster):
    return detect_interfaces(band_cluster)


@pytest.fixture(scope="session")
def sectored_cap_cluster():
    return gallery.sectored_cap(4, 0.8)


@pytest.fixture(scope="session")
def sectored_cap_graph(sectored_cap_cluster):
    return detect_interfaces(sectored_cap_cluster)
