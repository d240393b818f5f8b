"""Seeded synthetic inputs for the benchmark, written as mono PCM-16 WAV.

The signal recipe is ``make_voiced`` from ``tests/conftest.py``, copied here
so that a later edit to the test fixture cannot silently change benchmark
inputs (``perfbench/tests`` checks that both still agree).  Noise is
seeded white Gaussian noise, the same recipe as
``riskshrink.audio.generate_white_noise``.  Nothing here imports riskshrink:
the inputs must not depend on the code being measured.
"""

import wave

import numpy as np

_FULL_SCALE = 32768.0


def make_voiced(
    sample_rate: int = 8000,
    duration: float = 3.0,
    f0: float = 120.0,
    silence: float = 0.25,
    level: float = 0.15,
) -> np.ndarray:
    """Harmonic stack with syllabic amplitude modulation and an exactly
    silent lead-in."""
    t = np.arange(int(sample_rate * duration)) / sample_rate
    sig = np.zeros_like(t)
    for h in range(1, 13):
        f = f0 * h
        if f > 0.45 * sample_rate:
            break
        sig += np.sin(2.0 * np.pi * f * t + 0.7 * h) / h
    env = 0.5 * (1.0 - np.cos(2.0 * np.pi * 3.0 * t))
    env[t < silence] = 0.0
    sig *= env
    active = sig[sig != 0.0]
    rms = np.sqrt(np.mean(active**2)) if active.size else 1.0
    return level * sig / rms


def white_noise(length: int, sigma: float, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, sigma, size=length)


def mix(clean: np.ndarray, noise: np.ndarray, snr_db: float) -> np.ndarray:
    """``clean`` plus ``noise`` scaled to a global SNR of ``snr_db``."""
    g = np.sqrt(np.sum(clean**2) / (np.sum(noise**2) * 10.0 ** (snr_db / 10.0)))
    return clean + g * noise


def write_pcm16(path, samples: np.ndarray, sample_rate: int) -> None:
    """Quantize half away from zero and clip, as ``riskshrink`` writes."""
    x = np.asarray(samples, dtype=np.float64) * _FULL_SCALE
    q = np.clip(np.copysign(np.floor(np.abs(x) + 0.5), x), -32768, 32767)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(q.astype("<i2").tobytes())


def read_pcm16(path) -> tuple[np.ndarray, int, int]:
    """Return (samples in [-1, 1), sample rate, channel count)."""
    with wave.open(str(path), "rb") as r:
        rate, channels = r.getframerate(), r.getnchannels()
        raw = r.readframes(r.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / _FULL_SCALE, rate, channels
