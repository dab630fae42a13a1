"""Pure task functions executed by the runtime workers.

Every function here takes a single parameter mapping and returns a
JSON-able (or at least picklable) result.  CSI datasets arrive built:
each is a dataset node of the run's DAG (:mod:`repro.runtime.
dataset_nodes`) whose result the consumer's ``resolve`` hook swaps in
for the recipe.  Trained models are memoized per process, keyed by the
scheme, the fidelity and the dataset they were trained on, which is
safe because training is a deterministic function of those: a worker
that retrains instead of reusing gets bit-identical objects, so results
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

_SCHEMES: dict = {}


def clear_memos() -> None:
    """Drop the per-process model/payload memos (benchmarks use this)."""
    from repro.runtime.payloads import clear_payload_cache

    # A read-through memo keyed purely on its inputs: clearing it only
    # forces a bit-identical retrain, never a different result.
    _SCHEMES.clear()  # repro: allow[REP-PURE-TASK]
    clear_payload_cache()


def _fidelity(payload: Mapping) -> Fidelity:
    return Fidelity(**dict(payload))


def _freeze(payload: Mapping) -> tuple:
    return tuple(sorted(payload.items()))


def _same_dataset(a, b) -> bool:
    """Whether two datasets hold the same samples and splits."""
    return a is b or (
        a.spec == b.spec
        and np.array_equal(a.csi, b.csi)
        and np.array_equal(a.bf, b.bf)
        and all(
            np.array_equal(getattr(a.splits, name), getattr(b.splits, name))
            for name in ("train", "val", "test")
        )
    )


def _get_scheme(scheme: Mapping, dataset, fidelity: Mapping):
    """Build (or reuse) the feedback scheme a point asks for.

    Memoized per (scheme, fidelity) and training dataset.  A point
    carries its built dataset, not the recipe: within a run every point
    holds the same object, and across runs (a pool forked after a
    serial run) an equal dataset still hits.
    """
    kind = scheme.get("kind")
    key = (_freeze(scheme), _freeze(fidelity))
    # Pure read-through memo: fully keyed (the dataset is matched by
    # content), rebuilds bit-identically on a miss.
    for trained_on, built in _SCHEMES.get(key, ()):  # repro: allow[REP-PURE-TASK]
        if _same_dataset(trained_on, dataset):
            return built
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
                dataset,
                compression=scheme["compression"],
                fidelity=_fidelity(fidelity),
                seed=scheme["seed"],
            )
        )
    elif kind == "lbscifi":
        from repro.baselines import train_lbscifi

        built = train_lbscifi(
            dataset,
            compression=scheme["compression"],
            fidelity=_fidelity(fidelity),
            seed=scheme["seed"],
        )
    else:
        raise ConfigurationError(f"unknown scheme kind {kind!r}")
    _SCHEMES.setdefault(key, []).append((dataset, built))
    return built


def run_point(params: Mapping) -> dict:
    """Measure one scenario point; the engine's task function.

    ``params`` is a scenario point merged with its fidelity (see
    :meth:`repro.runtime.spec.Scenario.task_specs`), its ``dataset``
    and ``eval_dataset`` recipes swapped for the datasets their nodes
    built (see :mod:`repro.runtime.dataset_nodes`).
    """
    from repro.core.pipeline import evaluate_scheme

    fidelity = params["fidelity"]
    dataset = params["dataset"]
    eval_dataset = params.get("eval_dataset")
    scheme = _get_scheme(params["scheme"], dataset, fidelity)
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
    :mod:`repro.core.zoo_builder`), its ``dataset`` recipe swapped for
    the dataset its node built.  Returns everything the coordinator
    needs to reconstruct the trained model without the dataset: the
    state dict, the architecture, the measured test BER, and a history
    summary.  Pure and fully seeded, so results are bit-identical
    whichever worker (or the coordinator itself) runs the training.
    """
    from repro.core.training import train_splitbeam
    from repro.nn.serialize import state_dict

    fidelity = params["fidelity"]
    dataset = params["dataset"]
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
