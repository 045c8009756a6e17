"""docs/SERVICE.md's endpoint table lists exactly the server's routes."""

import pathlib
import re

from repro.service.server import ReproService

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "SERVICE.md"


def test_endpoint_table_matches_route_table():
    documented = set(
        re.findall(r"^\| `(/[^`]*)` \| (GET|POST) \|", DOC.read_text(), re.M)
    )
    service = ReproService()
    try:
        routes = {(path, method) for method, path in service._routes}
    finally:
        service.jobs.shutdown()
    assert documented == routes
