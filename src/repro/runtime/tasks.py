"""Pure task functions executed by the runtime workers.

Every function here takes a single parameter mapping and returns a
JSON-able (or at least picklable) result, with no reliance on process
state beyond memoization: datasets and trained models are cached
per process keyed by their full build recipe, which is safe because
both are deterministic functions of (spec, fidelity, seed).  A worker
that rebuilds instead of reusing gets bit-identical objects, so results
never depend on which worker ran what.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.config import Fidelity
from repro.errors import ConfigurationError
from repro.phy.link import LinkConfig, LinkSimulator

__all__ = [
    "run_point",
    "link_ber_point",
    "network_round",
    "train_zoo_entry",
    "payload_probe",
    "clear_memos",
]

_DATASETS: dict = {}
_SCHEMES: dict = {}


def clear_memos() -> None:
    """Drop the per-process dataset/model/payload memos (benchmarks use this)."""
    from repro.runtime.payloads import clear_payload_cache

    # Read-through memos keyed purely on frozen specs: clearing them
    # only forces a bit-identical rebuild, never a different result.
    _DATASETS.clear()  # repro: allow[REP-PURE-TASK]
    _SCHEMES.clear()  # repro: allow[REP-PURE-TASK]
    clear_payload_cache()


def _fidelity(payload: Mapping) -> Fidelity:
    return Fidelity(**dict(payload))


def _freeze(payload: Mapping) -> tuple:
    return tuple(sorted(payload.items()))


def _get_dataset(dataset: Mapping, fidelity: Mapping):
    key = (_freeze(dataset), _freeze(fidelity))
    # Pure read-through memo: the key freezes every input, so a miss
    # rebuilds bit-identical state; clear_memos only forces that rebuild.
    if key not in _DATASETS:  # repro: allow[REP-PURE-TASK]
        from repro.datasets import build_dataset, dataset_spec

        _DATASETS[key] = build_dataset(
            dataset_spec(dataset["id"]),
            fidelity=_fidelity(fidelity),
            reset_interval=dataset.get("reset_interval"),
            seed=dataset["seed"],
        )
    return _DATASETS[key]


def _get_scheme(scheme: Mapping, dataset_spec_map: Mapping, fidelity: Mapping):
    """Build (or reuse) the feedback scheme a point asks for."""
    kind = scheme.get("kind")
    key = (_freeze(scheme), _freeze(dataset_spec_map), _freeze(fidelity))
    # Pure read-through memo (see _get_dataset): fully-keyed, rebuilds
    # bit-identically on a miss.
    if key in _SCHEMES:  # repro: allow[REP-PURE-TASK]
        return _SCHEMES[key]
    if kind == "dot11":
        from repro.baselines import Dot11Feedback

        built = Dot11Feedback()
    elif kind == "ideal":
        from repro.baselines import IdealSvdFeedback

        built = IdealSvdFeedback()
    elif kind == "splitbeam":
        from repro.core.pipeline import SplitBeamFeedback
        from repro.core.training import train_splitbeam

        built = SplitBeamFeedback(
            train_splitbeam(
                _get_dataset(dataset_spec_map, fidelity),
                compression=scheme["compression"],
                fidelity=_fidelity(fidelity),
                seed=scheme["seed"],
            )
        )
    elif kind == "lbscifi":
        from repro.baselines import train_lbscifi

        built = train_lbscifi(
            _get_dataset(dataset_spec_map, fidelity),
            compression=scheme["compression"],
            fidelity=_fidelity(fidelity),
            seed=scheme["seed"],
        )
    else:
        raise ConfigurationError(f"unknown scheme kind {kind!r}")
    _SCHEMES[key] = built
    return built


def run_point(params: Mapping) -> dict:
    """Measure one scenario point; the engine's task function.

    ``params`` is a scenario point merged with its fidelity (see
    :meth:`repro.runtime.spec.Scenario.task_specs`).
    """
    from repro.core.pipeline import evaluate_scheme

    fidelity = params["fidelity"]
    dataset = _get_dataset(params["dataset"], fidelity)
    eval_spec = params.get("eval_dataset")
    eval_dataset = (
        _get_dataset(eval_spec, fidelity) if eval_spec is not None else None
    )
    scheme = _get_scheme(params["scheme"], params["dataset"], fidelity)
    target = eval_dataset if eval_dataset is not None else dataset
    ber_samples = params.get("ber_samples")
    indices = target.splits.test
    if ber_samples is not None:
        indices = indices[:ber_samples]
    evaluation = evaluate_scheme(
        scheme,
        dataset,
        indices=indices,
        link_config=LinkConfig(**params.get("link", {})),
        eval_dataset=eval_dataset,
    )
    return {
        "scheme": evaluation.scheme_name,
        "ber": float(evaluation.ber),
        "sta_flops": float(evaluation.sta_flops),
        "feedback_bits": int(evaluation.feedback_bits),
        "n_samples": int(np.asarray(indices).size),
    }


def train_zoo_entry(params: Mapping) -> dict:
    """Train one zoo model; the zoo builder's task function.

    ``params`` is a training-grid entry merged with its fidelity and
    with the architecture widths already resolved (see
    :meth:`repro.runtime.spec.TrainingGrid.task_specs` and
    :mod:`repro.core.zoo_builder`).  Returns everything the coordinator
    needs to reconstruct the trained model without the dataset: the
    state dict, the architecture, the measured test BER, and a history
    summary.  Pure and fully seeded, so results are bit-identical
    whichever worker (or the coordinator itself) runs the training.
    """
    from repro.core.training import train_splitbeam
    from repro.nn.serialize import state_dict

    fidelity = params["fidelity"]
    dataset = _get_dataset(params["dataset"], fidelity)
    model_spec = params["model"]
    train_spec = params["train"]
    trained = train_splitbeam(
        dataset,
        widths=list(model_spec["widths"]),
        fidelity=_fidelity(fidelity),
        checkpoint_on=train_spec["checkpoint_on"],
        quantizer_bits=params["quantizer_bits"],
        activation=model_spec["activation"],
        qat_bits=model_spec["qat_bits"],
        seed=train_spec["seed"],
    )
    measured = trained.test_ber(
        link_config=LinkConfig(**params.get("link", {})),
        max_samples=params["ber_samples"],
    ).ber
    history = trained.history
    return {
        "state": state_dict(trained.model),
        "widths": list(trained.model.widths),
        "activation": trained.model.activation_name,
        "measured_ber": float(measured),
        "history": {
            "n_epochs": len(history),
            "best_epoch": int(history.best_epoch),
            "best_val_metric": float(history.best_val_metric),
            "final_train_loss": float(history.train_loss[-1]),
            "stopped_early": bool(history.stopped_early),
        },
    }


def payload_probe(params: Mapping) -> dict:
    """Digest-and-shape probe over a (possibly interned) array payload.

    Used by the dispatch benchmarks and the payload-store tests: the
    result depends only on the array *contents*, so it proves workers
    observed byte-identical data whether the payload travelled inline
    or as a content-addressed reference.

    ``params``: ``blob`` (an ndarray, or a resolved payload reference)
    and an optional ``row`` selecting one row to summarize.  The probe
    digests only the selected row (the whole blob when ``row`` is
    omitted), so the task itself stays trivially cheap — dispatch
    benchmarks measure transport, not hashing.
    """
    import hashlib

    blob = np.ascontiguousarray(params["blob"])
    row = params.get("row")
    out: dict = {"shape": list(blob.shape)}
    if row is None:
        out["digest"] = hashlib.sha256(blob.tobytes()).hexdigest()
    else:
        selected = np.ascontiguousarray(blob[int(row) % blob.shape[0]])
        out["row"] = int(row)
        out["digest"] = hashlib.sha256(selected.tobytes()).hexdigest()
        out["row_sum"] = float(np.sum(selected))
    return out


def link_ber_point(params: Mapping) -> dict:
    """One (config, seed) BER measurement for :func:`ber_sweep`.

    ``params``: ``config`` (a :class:`LinkConfig`), ``channels``
    ``(n, users, S, Nr, Nt)``, and ``bf`` ``(n, users, S, Nt)``.
    """
    result = LinkSimulator(params["config"]).measure_ber(
        params["channels"], params["bf"]
    )
    return {
        "ber": float(result.ber),
        "bit_errors": int(result.bit_errors),
        "total_bits": int(result.total_bits),
    }


def network_round(params: Mapping) -> dict:
    """One STA-round of a :class:`~repro.core.network.NetworkCampaign`.

    The payload carries only what the round touches (a few samples'
    worth of arrays plus, for DNN rounds, the model) — never the whole
    dataset, so parallel campaigns don't pickle gigabytes per round.

    ``params``: ``channels`` ``(k, users, S, Nr, Nt)``, a
    ``link_config``, and ``scheme`` — either ``{"kind": "dot11",
    "bits": ..., "bf_true": (k, users, S, Nt)}`` or ``{"kind":
    "model", "label": ..., "bits": ..., "model": ..., "quantizer":
    ..., "x": model-input rows}``.  The coordinator pins the round's
    mobility/aging-degraded operating SNR into ``link_config``; it is
    echoed back so the campaign manifest records the environment each
    BER was measured under.
    """
    channels = params["channels"]
    scheme = params["scheme"]
    n_samples, n_users, n_sc = channels.shape[:3]
    n_tx = channels.shape[4]
    if scheme["kind"] == "model":
        from repro.core.training import bf_from_model_inputs

        bf = bf_from_model_inputs(
            scheme["model"],
            scheme["x"],
            n_users=n_users,
            n_subcarriers=n_sc,
            n_tx=n_tx,
            quantizer=scheme["quantizer"],
        )
        label = scheme["label"]
    elif scheme["kind"] == "dot11":
        from repro.baselines.dot11 import Dot11Feedback

        bf = Dot11Feedback().quantize_reconstruct(scheme["bf_true"])
        label = "802.11"
    else:
        raise ConfigurationError(f"unknown round scheme {scheme['kind']!r}")
    link_config = params["link_config"]
    measured = LinkSimulator(link_config).measure_ber(channels, bf)
    return {
        "scheme": label,
        "feedback_bits": int(scheme["bits"]),
        "ber": float(measured.ber),
        "mean_sinr_db": measured.mean_sinr_db,
        "effective_snr_db": float(link_config.snr_db),
    }
