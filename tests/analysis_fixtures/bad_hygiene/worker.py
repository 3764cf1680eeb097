"""Seeded cancellation-hygiene violations, each marked with a seed comment."""

import time

from repro.runtime.backpressure import StreamClosed


def swallow_everything(queue):
    try:
        return queue.get()
    except Exception:  # seed: broad-except
        return None


def raw_backoff():
    time.sleep(0.5)  # seed: raw-sleep


def lambda_from_text(body):
    return eval(f"lambda row: {body}")  # seed: dynamic-code


def cancellation_aware(queue):
    # Not a finding: StreamClosed is routed explicitly before the broad catch.
    try:
        return queue.get()
    except StreamClosed:
        raise
    except Exception:
        return None
