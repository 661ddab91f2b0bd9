import pytest

from cuspwind.fuchsian import build_group
from cuspwind.presets import preset_config


@pytest.fixture(scope="session")
def gamma2():
    return build_group(preset_config("gamma2-type"))


@pytest.fixture(scope="session")
def onecusp():
    return build_group(preset_config("one-cusp-one-hyperbolic"))


@pytest.fixture(scope="session", params=["gamma2-type", "one-cusp-one-hyperbolic"])
def any_preset(request):
    return request.param


@pytest.fixture(scope="session")
def any_group(any_preset):
    return build_group(preset_config(any_preset))
