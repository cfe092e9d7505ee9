"""The family table: one parameter normalizer and one runner per family.

Pins that the CLI and the service take their parameters through the
same rules (integers are never truncated or read from booleans) and
produce the same clusterings and centrality values for one seed.
"""

from __future__ import annotations

import pytest

from repro import write_uncertain_graph
from repro.cli import main
from repro.exceptions import ServiceError
from repro.graph.io import read_uncertain_graph
from repro.service import BackgroundServer, ClusterService
from repro.service.app import normalize_job_params
from repro.workloads.families import FAMILIES, integer
from tests.test_service import Client


class TestIntegerRule:
    def test_integer_strings_and_integral_floats_are_accepted(self):
        # Query-string values (GET /v1/graphs/{name}/estimate) arrive as text.
        assert integer("7", "k") == 7
        assert integer(7.0, "k") == 7

    @pytest.mark.parametrize("value", [True, False, 2.7, "2.7", float("nan"),
                                       float("inf"), None, "many"])
    def test_booleans_and_fractions_are_rejected(self, value):
        with pytest.raises(ServiceError, match="k must be an integer"):
            integer(value, "k")

    def test_fractional_k_never_coalesces_with_its_truncation(self):
        for k in (2.7, True):
            with pytest.raises(ServiceError):
                normalize_job_params({"graph": "g", "k": k})
        assert (normalize_job_params({"graph": "g", "k": "2"})
                == normalize_job_params({"graph": "g", "k": 2}))

    @pytest.mark.parametrize("inflation", ["nan", "inf", float("nan")])
    def test_non_finite_inflation_is_rejected(self, inflation):
        with pytest.raises(ServiceError, match="inflation must be a finite number"):
            normalize_job_params({"graph": "g", "algorithm": "mcl", "inflation": inflation})


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """The two-triangle graph as a .uel file and as the parsed graph."""
    from tests.test_service import _toy_graph

    path = tmp_path_factory.mktemp("families") / "toy.uel"
    write_uncertain_graph(_toy_graph(), path)
    return str(path), read_uncertain_graph(str(path))


@pytest.fixture(scope="module")
def client(toy):
    service = ClusterService(datasets=(), job_workers=1, cache_bytes=64 << 20)
    service.graphs.register_graph("toy", toy[1], source="test")
    with BackgroundServer(service) as server:
        c = Client(server.port)
        yield c
        c.close()


# (CLI argv after the graph path, job body) per family; seed 5 throughout.
CASES = {
    "mcp": (["cluster", "--algorithm", "mcp"], {"algorithm": "mcp"}),
    "acp": (["cluster", "--algorithm", "acp"], {"algorithm": "acp"}),
    "mcl": (["cluster", "--algorithm", "mcl"], {"algorithm": "mcl"}),
    "gmm": (["cluster", "--algorithm", "gmm"], {"algorithm": "gmm"}),
    "kmedian": (["kmedian"], {"algorithm": "kmedian"}),
    "kcenter": (["kcenter"], {"algorithm": "kcenter"}),
    "centrality-degree": (["centrality", "--measure", "degree"],
                          {"algorithm": "centrality", "measure": "degree"}),
    "centrality-harmonic": (["centrality", "--measure", "harmonic"],
                            {"algorithm": "centrality", "measure": "harmonic"}),
}


def test_cases_cover_every_family():
    assert {body["algorithm"] for _argv, body in CASES.values()} == set(FAMILIES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_and_service_agree(toy, client, capsys, case):
    path, graph = toy
    argv, body = CASES[case]
    sized = [] if body["algorithm"] == "centrality" else ["--k", "2"]
    if body["algorithm"] not in ("mcl", "gmm"):
        sized += ["--samples", "300"]
    assert main([argv[0], path, *argv[1:], *sized, "--seed", "5"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [str(label) for label in graph.node_labels]

    result = client.run_job({"graph": "toy", "k": 2, "samples": 300, "seed": 5, **body})
    if body["algorithm"] == "centrality":
        assert [row[1] for row in rows] == [f"{value:.6g}" for value in result["values"]]
        return
    labels = graph.node_labels
    assert [int(row[1]) for row in rows] == result["assignment"]
    assert [row[2] for row in rows] == [
        str(labels[result["centers"][cluster]]) if cluster >= 0 else "-"
        for cluster in result["assignment"]
    ]
