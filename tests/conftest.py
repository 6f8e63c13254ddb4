import pytest

from ahtn.engine import build_reference_set
from ahtn.fixtures import (collaborative_network, collaborative_reference,
                           hydrometer_network, hydrometer_reference,
                           write_demo_files)


@pytest.fixture(scope="session")
def hydro_net():
    return hydrometer_network()


@pytest.fixture(scope="session")
def hydro_rec():
    return hydrometer_reference()


@pytest.fixture(scope="session")
def hydro_refs(hydro_net, hydro_rec):
    return build_reference_set(hydro_net, [(hydro_rec, 1.0)])


@pytest.fixture(scope="session")
def collab_net():
    return collaborative_network()


@pytest.fixture(scope="session")
def collab_rec():
    return collaborative_reference()


@pytest.fixture(scope="session")
def collab_refs(collab_net, collab_rec):
    return build_reference_set(collab_net, [(collab_rec, 1.0)])


@pytest.fixture(scope="session")
def demo_dir(tmp_path_factory):
    """Bundled networks and recordings written out as plain files."""
    out = tmp_path_factory.mktemp("demo")
    write_demo_files(str(out))
    return out
