"""Componentwise application of bilinear operators over vector axes."""

from __future__ import annotations

from ..errors import ShapeError
from ..grid import GridFunction
from ..norms import MixedNormSpec, mixed_norm

__all__ = ["vector_valued_apply"]


def vector_valued_apply(
    op,
    fs: GridFunction,
    gs: GridFunction,
    spec1: MixedNormSpec,
    spec2: MixedNormSpec,
    spec_out: MixedNormSpec,
):
    """Apply a componentwise bilinear operator over matching vector axes.

    ``op`` maps two grid functions to one and acts on every component of
    their trailing vector axes at once, as the packet operators do; an
    output whose shape differs from the inputs' raises.  The specs are full
    mixed norms over all axes (spatial outermost, vector innermost) and are
    evaluated on the inputs and the output; returns
    ``(output, (norm_out, norm_f, norm_g))``.
    """
    if fs.vector_shape != gs.vector_shape:
        raise ShapeError(
            f"vector axes differ: {fs.vector_shape} vs {gs.vector_shape}"
        )
    out = op(fs, gs)
    if out.samples.shape != fs.samples.shape:
        raise ShapeError(
            f"operator output shape {out.samples.shape} differs from the input "
            f"shape {fs.samples.shape}: it does not act componentwise"
        )
    return out, (
        mixed_norm(out, spec_out),
        mixed_norm(fs, spec1),
        mixed_norm(gs, spec2),
    )
