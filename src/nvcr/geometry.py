"""Crystallographic frames and pair geometry for NV spins.

The NV axis of a given center points along one of the four <111>
directions of the diamond lattice (the four "classes").  Each spin
carries a local right-handed orthonormal triad (x_hat, y_hat, z_hat)
with z_hat along its NV axis.  A class frame is fixed by the crystal
alone: x_hat is the part of [100] transverse to the axis, whatever
field is applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CLASS_AXES", "NVClassFrame", "PairGeometry", "class_frame",
           "tilted_field_direction"]

# The four <111> class axes, normalized.  Pairwise dot products are
# +-1/3: classes are either parallel (same), at arccos(1/3) = 70.5 deg
# (close), or at arccos(-1/3) = 109.5 deg (far).
CLASS_AXES = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
) / np.sqrt(3.0)


def as_unit(v) -> np.ndarray:
    """Return v normalized, rejecting lengths below 1e-9 or not finite
    (a length overflows to inf from ~1e154 per component)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    with np.errstate(over="ignore"):    # an overflowed length is refused
        n = np.linalg.norm(v)
    if not 1e-9 <= n < np.inf:
        raise ValueError(f"cannot normalize a vector of length {n:.3g}: "
                         "it must be finite and at least 1e-9")
    return v / n


@dataclass(frozen=True)
class NVClassFrame:
    """Local orthonormal triad of one NV center.

    ``z_hat`` is the NV axis; ``x_hat`` and ``y_hat`` span the
    transverse plane with y_hat = z_hat x x_hat.  The axes are
    read-only copies, checked once on construction, so users of a
    frame need not check it again.
    """

    x_hat: np.ndarray
    y_hat: np.ndarray
    z_hat: np.ndarray

    def __post_init__(self):
        for name in ("x_hat", "y_hat", "z_hat"):
            axis = np.array(getattr(self, name), dtype=float)
            axis.setflags(write=False)
            object.__setattr__(self, name, axis)
        triad = np.stack([self.x_hat, self.y_hat, self.z_hat])
        gram = triad @ triad.T
        if not np.allclose(gram, np.eye(3), atol=1e-10):
            raise ValueError("frame axes are not orthonormal")
        if np.dot(np.cross(self.x_hat, self.y_hat), self.z_hat) < 0.0:
            raise ValueError("frame is not right-handed")


def class_frame(class_id: int) -> NVClassFrame:
    """Frame of one NV class in the crystal: z_hat along its <111> axis,
    x_hat along the part of [100] transverse to it, y_hat = z_hat x x_hat.
    """
    if not 0 <= class_id < len(CLASS_AXES):
        raise ValueError(f"class_id must be in 0..3, got {class_id}")
    z_hat = CLASS_AXES[class_id]
    x = np.array([1.0, 0.0, 0.0]) - z_hat[0] * z_hat
    x_hat = x / np.linalg.norm(x)
    return NVClassFrame(x_hat, np.cross(z_hat, x_hat), z_hat)


@dataclass(frozen=True)
class PairGeometry:
    """Geometry of a spin pair: inter-spin direction plus both frames.

    ``u_hat`` is a unit 3-vector or an (n, 3) stack of them sharing the
    frames.  Matrix elements downstream are expressed in units of
    J0/r^3, so the separation itself does not enter.
    """

    u_hat: np.ndarray
    frame1: NVClassFrame
    frame2: NVClassFrame

    def __post_init__(self):
        u = np.asarray(self.u_hat, dtype=float)
        if u.ndim not in (1, 2) or u.shape[-1] != 3 or \
                not np.all(np.abs(np.linalg.norm(u, axis=-1) - 1.0) <= 1e-9):
            raise ValueError("u_hat must be a unit 3-vector or a stack")
        object.__setattr__(self, "u_hat", u)


def tilted_field_direction() -> np.ndarray:
    """Unit field direction tilted 24 deg away from the [100] crystal axis.

    The tilt plane lies 26 deg from [010] toward [001] in the plane
    normal to [100].  That azimuth places the four class projections so
    that the slowest-splitting pair of transition lines separates by the
    cross-relaxation range near 15 G.
    """
    t = np.deg2rad(24.0)
    a = np.deg2rad(26.0)
    return np.array([np.cos(t), np.sin(t) * np.cos(a), np.sin(t) * np.sin(a)])
