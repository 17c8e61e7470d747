"""The four benchmark problems as loadable run configurations.

Geometry recipes regenerate the meshes at a resolution factor ``scale``:
the refinement-band element size is min(reference h, ell/2) / scale, so
scale 1.0 reproduces the reference resolution and smaller values coarsen
for desk-scale runs.  Notched 2-D specimens carry a zero-width slit of
duplicated nodes; the 3-D beam notch has finite width (cells removed).

Parameter values, set by the ``material`` config keys: moduli in N/mm^2
(lshape and bend3d give Young's modulus E and Poisson ratio nu, from which
the Lame constants ``lam`` and ``mu`` are computed), ``gc`` in N/mm,
``ell`` in mm, ``k`` and ``eps_pen`` dimensionless:

========  ==========================  ======  =======  ======  ========
preset    elasticity (N/mm^2)         gc      ell      k       eps_pen
========  ==========================  ======  =======  ======  ========
sent      lam 121153.8, mu 80769.2    2.7     0.0175   1e-4    1e-6
sens      lam 121153.8, mu 80769.2    2.7     0.001    1e-4    1e-5
lshape    E 25850, nu 0.18            0.095   20.0     1e-4    1e-4
bend3d    E 39000, nu 0.15            0.04    15.0     1e-4    1e-4
========  ==========================  ======  =======  ======  ========

A displacement solve factors a band of (bandwidth + 1) * dofs entries, in
single precision from a bandwidth of 64 up (``linsolve``); a band over
``linsolve.BAND_BYTES_BUDGET`` (2 GiB) stops the run at its first solve
(exit 3).  At the default scale 1, sens needs 16.6 GB and bend3d 45.5 GB,
so both are refused; these scales fit:

========  =====  =======  =========  =======
preset    scale  dofs     bandwidth  band
========  =====  =======  =========  =======
sent      1      28,942   148        0.02 GB
sens      0.5    718,999  721        2.08 GB
lshape    1      56,853   1,916      0.44 GB
bend3d    0.5    182,312  2,459      1.79 GB
========  =====  =======  =========  =======

Dimensions that appear only in the source figures (the 1 mm notched square
with a 0.5 mm mid-edge slit, the 500 mm L-panel, the 840 mm RILEM beam) are
encoded as the community-standard values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .driver import BacktrackConfig, DirichletSpec, LoadProgram
from .material import MaterialParams
from .mesh import Mesh, generate_grid, select_nodes
from .solver import SolverConfig

__all__ = ["RunSetup", "PRESET_NAMES", "load_preset"]

PRESET_NAMES = ("sent", "sens", "lshape", "bend3d")

# Element size (mm) of the slit band at scale 1, unless ell/2 is smaller.
_SLIT_REF_H = 0.005


@dataclass
class RunSetup:
    """Everything a run needs: mesh, material, schedule, solver knobs.  The
    reaction a run records is the force conjugate to w, which the program's
    Dirichlet specs define (``driver.build_dofmap``)."""

    name: str
    scale: float
    mesh: Mesh
    params: MaterialParams
    program: LoadProgram
    solver: SolverConfig = field(default_factory=SolverConfig)
    backtrack: BacktrackConfig = field(default_factory=BacktrackConfig)


def _segment(a: float, b: float, h: float) -> np.ndarray:
    n = max(1, int(round((b - a) / h)))
    return np.linspace(a, b, n + 1)


def _piecewise(breaks, sizes) -> np.ndarray:
    """Concatenate uniform segments between breakpoints (one size each)."""
    parts = [_segment(breaks[i], breaks[i + 1], sizes[i]) for i in range(len(sizes))]
    coords = parts[0]
    for seg in parts[1:]:
        coords = np.concatenate([coords, seg[1:]])
    return coords


def _cut_slit(mesh: Mesh, y0: float, x_lo: float, x_hi: float) -> Mesh:
    """Duplicate the nodes on the open slit segment and reattach the
    elements above it, leaving the crack tip connected."""
    tol = 1e-9
    on_line = np.abs(mesh.nodes[:, 1] - y0) <= tol
    slit = np.flatnonzero(on_line & (mesh.nodes[:, 0] >= x_lo - tol) & (mesh.nodes[:, 0] < x_hi - tol))
    if slit.size == 0:
        raise ValueError("slit line does not hit any mesh nodes")

    new_ids = mesh.n_nodes + np.arange(slit.size)
    remap = np.arange(mesh.n_nodes)
    remap[slit] = new_ids

    centroids_y = mesh.nodes[mesh.elements, 1].mean(axis=1)
    elements = mesh.elements.copy()
    above = centroids_y > y0
    elements[above] = remap[elements[above]]

    nodes = np.vstack([mesh.nodes, mesh.nodes[slit]])
    return Mesh(dim=2, nodes=nodes, elements=elements)


def _square_with_slit(scale: float, ell: float) -> Mesh:
    """Unit square, horizontal mid-edge slit from the left edge to the
    center, refined in a band around the slit line."""
    length = 1.0
    h_fine = min(min(_SLIT_REF_H, ell / 2.0) / scale, 0.1)
    h_coarse = min(5.0 * h_fine, 0.125)
    band = max(0.1, 3.0 * h_fine)

    xs = _piecewise([0.0, 0.5, length], [h_fine, h_fine])
    y_lo = max(0.5 - band, 0.0)
    y_hi = min(0.5 + band, length)
    ys = _piecewise(
        [0.0, y_lo, 0.5, y_hi, length], [h_coarse, h_fine, h_fine, h_coarse]
    )
    mesh = generate_grid([xs, ys])
    mesh = _cut_slit(mesh, 0.5, 0.0, 0.5)

    mesh.node_sets = {
        "bottom": select_nodes(mesh, lambda x: x[:, 1]),
        "top": select_nodes(mesh, lambda x: x[:, 1] - length),
        "left": select_nodes(mesh, lambda x: x[:, 0]),
        "right": select_nodes(mesh, lambda x: x[:, 0] - length),
        "pin": select_nodes(mesh, lambda x: np.abs(x[:, 0]) + np.abs(x[:, 1])),
    }
    mesh.validate()
    return mesh


def _sent(scale: float) -> tuple:
    p = MaterialParams(lam=121153.8, mu=80769.2, gc=2.7, ell=0.0175, k=1e-4, eps_pen=1e-6)
    mesh = _square_with_slit(scale, p.ell)
    program = LoadProgram(
        n_steps=100,
        dw=1e-4,
        bcs=(
            DirichletSpec("bottom", 1, 0.0),
            DirichletSpec("top", 1, 1.0),
            DirichletSpec("top", 0, 0.0),
            DirichletSpec("pin", 0, 0.0),
        ),
    )
    return mesh, p, program


def _sens(scale: float) -> tuple:
    p = MaterialParams(lam=121153.8, mu=80769.2, gc=2.7, ell=0.001, k=1e-4, eps_pen=1e-5)
    mesh = _square_with_slit(scale, p.ell)
    program = LoadProgram(
        n_steps=200,
        dw=1e-4,
        bcs=(
            DirichletSpec("bottom", 1, 0.0),
            DirichletSpec("top", 1, 0.0),
            DirichletSpec("left", 1, 0.0),
            DirichletSpec("right", 1, 0.0),
            DirichletSpec("bottom", 0, 0.0),
            DirichletSpec("top", 0, 1.0),
        ),
    )
    return mesh, p, program


def _lshape(scale: float) -> tuple:
    p = MaterialParams.from_young_poisson(25850.0, 0.18, gc=0.095, ell=20.0, k=1e-4, eps_pen=1e-4)
    h_fine = min(min(6.25, p.ell / 2.0) / scale, 60.0)
    h_coarse = min(2.5 * h_fine, 125.0)

    # legs: x in [0,250] full height, x in [250,500] upper half only;
    # re-entrant corner at (250, 250), load line through x=470 on y=250
    xs = _piecewise(
        [0.0, 150.0, 250.0, 350.0, 470.0, 500.0],
        [h_coarse, h_fine, h_fine, h_coarse, h_coarse],
    )
    ys = _piecewise(
        [0.0, 150.0, 250.0, 350.0, 500.0], [h_coarse, h_fine, h_fine, h_coarse]
    )
    zs = _segment(0.0, 100.0, min(50.0, 2.0 * h_fine))

    def keep(c):
        return (c[:, 0] <= 250.0) | (c[:, 1] >= 250.0)

    mesh = generate_grid([xs, ys, zs], keep=keep)
    mesh.node_sets["clamp"] = select_nodes(mesh, lambda x: x[:, 1])
    mesh.node_sets["load"] = select_nodes(mesh, lambda x: np.abs(x[:, 0] - 470.0) + np.abs(x[:, 1] - 250.0))

    program = LoadProgram(
        n_steps=500,
        dw=1e-3,
        bcs=(
            DirichletSpec("clamp", 0, 0.0),
            DirichletSpec("clamp", 1, 0.0),
            DirichletSpec("clamp", 2, 0.0),
            DirichletSpec("load", 1, 1.0),
        ),
    )
    return mesh, p, program


def _bend3d(scale: float) -> tuple:
    p = MaterialParams.from_young_poisson(39000.0, 0.15, gc=0.04, ell=15.0, k=1e-4, eps_pen=1e-4)
    h_fine = min(min(1.0, p.ell / 2.0) / scale, 25.0)
    h_coarse = min(40.0, 8.0 * h_fine)

    # beam 840 x 100 x 100, z = -100 loaded face, z = 0 support/tension face,
    # supports at y = 20 / 820, mid-span notch 10 wide over the lower half
    ys = _piecewise(
        [0.0, 20.0, 370.0, 415.0, 420.0, 425.0, 470.0, 820.0, 840.0],
        [20.0, h_coarse, h_fine, h_fine, h_fine, h_fine, h_coarse, 20.0],
    )
    zs = _piecewise([-100.0, -50.0, 0.0], [2.0 * h_fine, 2.0 * h_fine])
    xs = _segment(0.0, 100.0, 100.0 / max(2, int(round(100.0 / (2.0 * h_fine)))))

    def keep(c):
        return ~((np.abs(c[:, 1] - 420.0) <= 5.0) & (c[:, 2] > -50.0))

    mesh = generate_grid([xs, ys, zs], keep=keep)
    mesh.node_sets["load"] = select_nodes(mesh, lambda x: np.abs(x[:, 1] - 420.0) + np.abs(x[:, 2] + 100.0))
    mesh.node_sets["sup_a"] = select_nodes(mesh, lambda x: np.abs(x[:, 1] - 20.0) + np.abs(x[:, 2]))
    mesh.node_sets["sup_b"] = select_nodes(mesh, lambda x: np.abs(x[:, 1] - 820.0) + np.abs(x[:, 2]))

    program = LoadProgram(
        n_steps=600,
        dw=1e-3,
        bcs=(
            DirichletSpec("sup_a", 1, 0.0),
            DirichletSpec("sup_a", 2, 0.0),
            DirichletSpec("sup_a", 0, 0.0),
            DirichletSpec("sup_b", 2, 0.0),
            DirichletSpec("load", 2, 1.0),
        ),
    )
    return mesh, p, program


# The mesh, material and load program of each preset, by its name, at a
# scale.
_BUILDERS = {"sent": _sent, "sens": _sens, "lshape": _lshape, "bend3d": _bend3d}


def load_preset(name: str, scale: float) -> RunSetup:
    """Build a fully populated run configuration for a named benchmark.

    ``scale`` in (0, 1] divides the mesh resolution (element sizes grow by
    1/scale) for desk-scale runs; 1.0 is the reference resolution.  An
    unknown name or a scale outside (0, 1] is a ValueError naming the key
    (``preset`` or ``scale``) and its value.
    """
    if name not in _BUILDERS:
        raise ValueError(f"preset = {name!r} is unknown; choose from {', '.join(PRESET_NAMES)}")
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale = {scale!r} must be in (0, 1]")
    mesh, params, program = _BUILDERS[name](scale)
    return RunSetup(name=name, scale=scale, mesh=mesh, params=params, program=program)
