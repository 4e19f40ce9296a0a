"""The one orderer table and the one synthetic measure table."""

import argparse

import pytest

from repro.cli import build_parser
from repro.errors import OrderingError, UtilityError
from repro.ordering import registry
from repro.ordering.registry import AUTO_ORDERER, ORDERERS, make_orderer
from repro.service import server
from repro.service.server import QueryRequest, QueryService
from repro.utility.cost import LinearCost
from repro.workloads.synthetic import SYNTHETIC_MEASURES


def subcommand_choices(command: str, option: str) -> tuple:
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for action in subparsers.choices[command]._actions:
        if option in action.option_strings:
            return tuple(action.choices)
    raise AssertionError(f"{command} has no {option}")


class TestOrdererRegistry:
    def test_the_service_reads_the_registry_dict(self):
        assert server.ORDERER_TABLE is registry.ORDERERS

    @pytest.mark.parametrize(
        "command,option",
        [
            ("order", "--algorithm"),
            ("simulate", "--orderer"),
            ("serve", "--default-orderer"),
            ("cluster", "--default-orderer"),
        ],
    )
    def test_cli_choices_are_auto_plus_the_registry(self, command, option):
        assert subcommand_choices(command, option) == (AUTO_ORDERER, *ORDERERS)

    def test_cli_measure_choices_are_the_measure_table(self):
        assert subcommand_choices("order", "--measure") == tuple(SYNTHETIC_MEASURES)

    def test_unknown_name_fails_the_same_way_everywhere(self, movies, capsys):
        with pytest.raises(OrderingError) as raised:
            make_orderer("nope", LinearCost())
        service = QueryService(movies.catalog, movies.source_facts)
        result = service.execute(QueryRequest(query=movies.query, orderer="nope"))
        assert result.status == "error"
        assert result.error == str(raised.value)
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["order", "--algorithm", "nope"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "nope" in err

    def test_replaced_entries_apply_at_request_time(self, movies, monkeypatch):
        built = []

        def spy(utility, factory=ORDERERS["pi"]):
            built.append(utility)
            return factory(utility)

        monkeypatch.setitem(ORDERERS, "pi", spy)
        service = QueryService(movies.catalog, movies.source_facts)
        result = service.execute(QueryRequest(query=movies.query, orderer="pi"))
        assert result.ok
        assert len(built) == 1

    def test_auto_resolves_per_measure(self, tiny_domain):
        assert make_orderer("auto", LinearCost()).name == "anyk"
        assert make_orderer("auto", tiny_domain.coverage()).name == "PI"

    def test_options_reach_the_constructor(self):
        orderer = make_orderer("greedy", LinearCost(), cache=True)
        assert orderer.name == "greedy"


class TestSyntheticMeasures:
    def test_every_name_builds_a_measure(self, tiny_domain):
        for name in SYNTHETIC_MEASURES:
            assert tiny_domain.measure(name) is not None

    def test_caching_variants(self, tiny_domain):
        assert not tiny_domain.measure("failure").caching
        assert tiny_domain.measure("failure-caching").caching

    def test_unknown_measure(self, tiny_domain):
        with pytest.raises(UtilityError, match="unknown measure"):
            tiny_domain.measure("nope")
