"""Random streams and oracle draws of the verify suites."""

import inspect
from collections import defaultdict

from locmix import density, harness, verify


def _check_functions():
    """The check functions of ``locmix.verify``: those the suites call by name."""
    names = {name for suite in verify.SUITES.values() for name in suite.__code__.co_names}
    return {
        name: getattr(verify, name)
        for name in names
        if inspect.isfunction(getattr(verify, name, None))
        and getattr(verify, name).__module__ == verify.__name__
    }


def test_checks_and_oracle_models_draw_on_streams_of_their_own(monkeypatch):
    # Equal (master_seed, stream) pairs give equal draws, so two checks
    # (or two oracle models) that share one are not independent.
    checks = _check_functions()
    assert len(checks) == 15
    current = [None]
    check_calls = defaultdict(int)
    pair_checks = defaultdict(set)
    pair_models = defaultdict(set)
    models = []  # keeps each model alive, so that its id stays its own

    def labelled(name, fn):
        def run(*args, **kwargs):
            check_calls[name] += 1
            current[0] = f"{name} call {check_calls[name]}"
            try:
                return fn(*args, **kwargs)
            finally:
                current[0] = None

        return run

    class RecordingStream(verify.RngStream):
        __slots__ = ()

        def __init__(self, master_seed, stream_index=0):
            pair_checks[(master_seed, stream_index)].add(current[0])
            super().__init__(master_seed, stream_index)

    def recording_data_matrix(model, n, rng, size):
        models.append(model)
        pair_models[(rng.master_seed, rng.stream_index)].add(id(model))
        return sample_data_matrix(model, n, rng, size)

    sample_data_matrix = verify.sample_data_matrix
    for name, fn in checks.items():
        monkeypatch.setattr(verify, name, labelled(name, fn))
    for module in (verify, harness, density):
        monkeypatch.setattr(module, "RngStream", RecordingStream)
    monkeypatch.setattr(verify, "sample_data_matrix", recording_data_matrix)

    results = verify.run_suite("all", 0)
    assert len(results) == 48
    assert None not in set().union(*pair_checks.values())
    shared = {pair: users for pair, users in pair_checks.items() if len(users) > 1}
    assert not shared
    assert all(len(ids) == 1 for ids in pair_models.values())


def test_representation_vs_oracle_draws_each_models_matrices_once(monkeypatch):
    # Six models of 5000 matrices each, in blocks of 4096 and 904; both
    # products of a model are formed from the same matrices.
    calls = []
    sample_data_matrix = verify.sample_data_matrix

    def counting(*args):
        calls.append(args[3])
        return sample_data_matrix(*args)

    monkeypatch.setattr(verify, "sample_data_matrix", counting)
    assert all(r.passed for r in verify.representation_vs_oracle(0))
    assert calls == [harness.BLOCK_SIZE, verify._ORACLE_DRAWS - harness.BLOCK_SIZE] * 6
