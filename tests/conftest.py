"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls this process makes."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def one_cpu():
    """This process pinned to its lowest CPU for the test."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    yield
    os.sched_setaffinity(0, cpus)


def _fork_absent(monkeypatch):
    monkeypatch.delattr(os, "fork")


def _fork_fails(monkeypatch):
    def failing_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", failing_fork)


def _child_fails(monkeypatch):
    fork = os.fork

    def fork_of_a_failing_child():
        pid = fork()
        if pid == 0:
            os._exit(3)
        return pid

    monkeypatch.setattr(os, "fork", fork_of_a_failing_child)


_NO_CHILD = {"fork_absent": _fork_absent, "fork_fails": _fork_fails,
             "child_fails": _child_fails}


@pytest.fixture(params=list(_NO_CHILD))
def no_child(request, monkeypatch):
    """Each way a fork delivers nothing: os.fork absent, os.fork raising
    OSError, and a child that exits 3; the fixture's value is its name."""
    _NO_CHILD[request.param](monkeypatch)
    return request.param
