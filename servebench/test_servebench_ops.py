"""The benchmark's operation streams are a pure function of the seed."""

import itertools

import pytest

from servebench.workloads import CLIENTS, WORKLOADS, operations


def _prefix(workload, seed, client, count=400):
    return list(itertools.islice(operations(workload, seed, client), count))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_operations(workload):
    for client in range(CLIENTS[workload]):
        assert _prefix(workload, 7, client) == _prefix(workload, 7, client)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_gives_other_operations(workload):
    for client in range(CLIENTS[workload]):
        assert _prefix(workload, 7, client) != _prefix(workload, 8, client)


def test_read_write_clients_differ_and_only_remove_their_own_pairs():
    first, second = _prefix("read_write", 7, 0), _prefix("read_write", 7, 1)
    assert first != second
    for stream in (first, second):
        live = set()
        for op in stream:
            if op[0] != "update":
                continue
            kind, pair = op[2], op[3]
            if kind == "add":
                live.add(pair)
            else:
                assert pair in live
                live.remove(pair)
        writes = sum(op[0] == "update" for op in stream)
        assert writes == len(stream) // 4
