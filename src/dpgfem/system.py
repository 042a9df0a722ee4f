"""Element-level optimal-test algebra, global assembly, solve, estimate.

On each cell the broken test space carries a Gram matrix G, the mixed
form a rectangular block B (test rows, trial columns) and the load a
vector l.  The trial-side normal equations

    A_K = B^H G^{-1} B,    f_K = B^H G^{-1} l

are accumulated into a global system.  The same element data drives
the residual error estimator: with eps_K = G^{-1}(l - B x) the local
indicator is eta_K^2 = eps_K^H G eps_K.

Every matrix is real: the form kernels fold a phase, 1 or i, per slot
into the coefficients (``formulations._slot_phases``) and return the
real D_y^H G D_y and D_y^H B D_x, so A is the real symmetric
D_x^H A D_x and only loads and solutions are complex.  ``assemble``
returns this phased system and ``solve`` the physical x = D_x y; the
other methods take and give physical quantities.

All cells share the local sizes, so the form evaluators work on stacks
of cells, in groups whose stacks fit a fixed memory budget.  A
Discretization builds the case-independent stacks once, on first use:
the inverse Cholesky factors L^{-1} of G = L L^H and the whitened
blocks W = L^{-1} B.  With them A_K = W^H W, f_K = W^H L^{-1} l, and
eta_K is the norm of L^{-1} l - W x_K = L^H eps_K.  Assembly, the
estimator, the operator norm and the dense diagnostics read the
stacks; only the load is evaluated per case.

Every family reaches an affine cell through a Piola map, so G and B
read the Jacobian J only through the metric J^T J and the sign of det J
(``MeshGeometry.metric``), beta only through J^{-1} beta, and the
coefficients given per cell.  These make a cell's class key; a mesh
repeats a few keys, and so do the meshes of a ladder or an adaptive
run.  The stacks are kept once per class, evaluated on its first cell,
each cell keeps only its class index, and a process-level table keyed
by the formulation's content and the class key hands every class to
each later Discretization that meets it.  The cells of a class agree to
rounding, not bit for bit.  B is kept in local coefficients; the
per-cell orientation factors D of the global columns scale it after
the gather, B_K = B_class D_K, and are never folded into a class.  The
trial-norm Grams, the interface quotient norms among them, take the
same layout on the mesh's metric classes, and ``spaces.class_matrix``
sums every class stack into a sparse matrix.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import (
    cho_factor,  # noqa: F401 -- bench/test_bench.py reads system.cho_factor
    eigh_tridiagonal,
    inv,
)
from scipy.sparse.linalg import splu

from . import formulations as fm
from .meshes import _integer, cell_classes, class_keys
from .reference import conforming_basis, modal_basis, trace_factor
from .spaces import (
    ElementTables,
    InterfaceSpace,
    _accumulate,
    _by_parts,
    _matvec,
    cell_groups,
    class_apply,
    class_matrix,
    conforming_map,
    natural_gram,
    skeleton_quotient_apply,
    skeleton_quotient_gram,
    trace_mass,  # noqa: F401 -- bench/test_bench.py reads system.trace_mass
    trace_rhs,
)


# opnorm's Lanczos iteration stops after this many steps, or once its
# top Ritz value moves by at most this much relative to max(it, 1).
# 18 steps reach the value of a 120-step power iteration
# (tests/oracles.py) on every tested setup; 27, the fewest that do, bring
# the p=2 Poisson setup of tests/test_quotient_norms.py within 1e-3 of
# the converged norm.
_OPNORM_STEPS = 27
_OPNORM_TOL = 1e-11


# SuperLU's supernode relaxation and panel size for _factor (see there)
_LU_RELAX = 3
_LU_PANEL = 16


def _factor(A):
    """Sparse LU of a symmetric positive definite matrix.

    Every matrix factorized here is SPD by construction, so the
    diagonal is a stable pivot sequence.  With a symmetric minimum-degree
    ordering of A + A^T and diagonal pivots, L and U each have the
    sparsity of the Cholesky factor under that ordering.

    Supernodes are relaxed to at most ``_LU_RELAX`` columns, where
    SuperLU's default relaxation pads the small supernodes of these
    matrices with stored zeros (72.2 against 64.4 million stored entries
    on the 2 560-tet Maxwell matrix), and updated in panels of
    ``_LU_PANEL`` columns.  Panels of 8 were slightly faster in 2D but
    slower in 3D, so both values were chosen across both (factorization
    time relative to the defaults, every matrix of a run refactored in
    one process, one BLAS thread, medians of interleaved repetitions):

        matrices                                     defaults   3, 16
        study_2d, 23 (to 10 241 dofs)                  172 ms    0.67
        adaptive_lshape, 48 (to 3 835 dofs)            203 ms    0.98
        maxwell_ultraweak, 320 tets (8 076 dofs)       471 ms    1.02
        maxwell_ultraweak, 2 560 tets (64 152 dofs)   43.7 s     0.74

    The fill L + U stays that of the defaults to 0.1 % on every matrix
    above 100 dofs of the first three rows.
    """
    return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                relax=_LU_RELAX, panel_size=_LU_PANEL,
                options={"SymmetricMode": True})


class SingularSystemError(RuntimeError):
    """Raised when the condensed system cannot be factorized."""

    def __init__(self, message, smallest_ritz=None):
        super().__init__(message)
        self.smallest_ritz = smallest_ritz


class Discretization:
    """One formulation realized on one mesh.

    Coefficients given as arrays hold one value (one vector for beta)
    per cell.  The element stacks are built on first use and kept.
    """

    def __init__(self, formulation, mesh):
        if mesh.dim != formulation.dim:
            raise ValueError("mesh dimension does not match the formulation")
        for key, val in formulation.params.items():
            per_cell = np.ndim(val) - (key == "beta")
            if per_cell > 1 or (per_cell == 1 and len(val) != mesh.ncells):
                raise ValueError(
                    f"coefficient {key!r} must be a constant or hold one "
                    f"entry per cell ({mesh.ncells}), not shape "
                    f"{np.shape(val)}")
        self.form = formulation
        self.mesh = mesh
        # the degree of every volume and facet rule
        self.order = 2 * (formulation.p + formulation.delta) + 4

        self._tables = {}
        self._maps = {}
        # interface slot name -> its space, one per distinct space
        self._interfaces = {}
        self.slot_offset = {}
        self.slot_size = {}
        offset, phases = 0, []
        for s in formulation.trial_slots + formulation.interface_slots:
            dmap = self._build_slot(s)
            self._maps[s.name] = dmap
            self.slot_offset[s.name] = offset
            self.slot_size[s.name] = dmap.ndofs
            offset += dmap.ndofs
            phases.append(np.full(dmap.ndofs, formulation.phases[s.name]))
        self.ndof = offset
        # the diagonal of D_x: the phase of every dof
        self.dof_phases = np.concatenate(phases)
        self.ndof_field = sum(self.slot_size[s.name]
                              for s in formulation.trial_slots)

        self._test_offsets = {}
        at, phases = 0, []
        for s in formulation.test_slots:
            basis = modal_basis(s.family, s.degree, mesh.dim)
            self._tables[s.name] = ElementTables(mesh, basis, self.order)
            self._test_offsets[s.name] = at
            at += basis.nfuncs
            phases.append(np.full(basis.nfuncs, formulation.phases[s.name]))
        self.ntest_local = at
        # the diagonal of D_y on a cell: the phase of every test function
        self._test_phases = np.concatenate(phases)
        self._ref_tables = self._tables[formulation.test_slots[0].name]
        self._load = None

    # -- space construction -------------------------------------------

    def _build_slot(self, s):
        mesh = self.mesh
        if s.continuity == "skeleton":
            key = (s.family, s.degree)
            space = next((sp for sp in self._interfaces.values()
                          if sp.key == key), None)
            if space is None:
                space = InterfaceSpace(mesh, s, self.form.p + self.form.delta,
                                       self.order, _factor)
            self._interfaces[s.name] = space
            return space.dofmap
        # a modal basis is all interior: its cells stay uncoupled
        basis = (conforming_basis if s.continuity == "conforming"
                 else modal_basis)(s.family, s.degree, mesh.dim)
        self._tables[s.name] = ElementTables(mesh, basis, self.order)
        return conforming_map(mesh, basis)

    def dofmap(self, name):
        return self._maps[name]

    def test_offset(self, name):
        return self._test_offsets[name]

    # -- element systems ------------------------------------------------

    @cached_property
    def _columns(self):
        """(ncells, nloc) global column dofs and factors, field slots
        first."""
        slots = self.form.trial_slots + self.form.interface_slots
        dofs = [self.slot_offset[s.name] + self._maps[s.name].cell_dofs
                for s in slots]
        facs = [self._maps[s.name].cell_factors for s in slots]
        return np.concatenate(dofs, axis=1), np.concatenate(facs, axis=1)

    def _groups(self, n):
        """Slices of n consecutive cells or classes, each evaluated as one
        stack, sized by the real stacks G, L^{-1} and W that each holds."""
        nt, m = self.ntest_local, self._columns[0].shape[1]
        return cell_groups(n, 8 * nt * (2 * nt + m))

    @cached_property
    def _class_key(self):
        """The formulation's content, which names the layout of the class
        keys, and the cells' class keys (``meshes.class_keys``): the
        metric J^T J and sign det J, then J^{-1} beta when the form has a
        beta, then the scalar coefficients given per cell.

        The kernels read beta only dotted with, or multiplied by, pushed
        tables, so through J^{-1} beta and the metric; the loads, which
        read the cells' points, stay per cell."""
        form, geo = self.form, self.mesh.geometry
        content, values = [], list(geo.metric)
        for key in sorted(form.params):
            val = np.asarray(form.params[key], dtype=float)
            per_cell = val.ndim - (key == "beta") == 1
            content.append((key, None if per_cell else (val + 0.0).tobytes()))
            if key == "beta":
                beta = np.broadcast_to(val, geo.J.shape[:2])
                values.append((geo.Jinv @ beta[..., None])[..., 0])
            elif per_cell:
                values.append(val)
        return ((form.id, form.dim, form.p, form.delta, form.mode,
                 tuple(content)), class_keys(*values))

    def _cell_classes(self):
        """(first cell, class index of every cell) of the classes of cells
        with the same class key, on which the element kernels read the
        same values up to rounding."""
        return cell_classes(self._class_key[1])

    def _evaluate(self, group):
        """(G, B) stacks of a cell group, B in local coefficients."""
        form = self.form
        G = fm.y_gram(form, group)
        B = np.concatenate([fm.b0_block(form, group),
                            fm.bhat_block(form, group)], axis=-1)
        return G, B

    def element_system(self, ci, case=None):
        """The physical (G, B, l) on one cell, trial columns in global
        coefficients, from the phased G', B', l' of the kernels."""
        if not 0 <= _integer("ci", ci) < self.mesh.ncells:
            raise ValueError(f"cell index ci={ci} is out of range for "
                             f"ncells={self.mesh.ncells}")
        group = _CellGroup(self, np.array([ci]))
        G, B = self._evaluate(group)
        l = fm.load_vector(self.form, group, case)
        dy, (dofs, facs) = self._test_phases, self._columns
        dx = self.dof_phases[dofs[ci]].conj() * facs[ci]
        return (dy[:, None] * G[0] * dy.conj(), dy[:, None] * B[0] * dx,
                dy * l[0])

    @cached_property
    def element_stacks(self):
        """The case-independent element stacks of all cells."""
        return _ElementStacks(self)

    def _whitened_load(self, case):
        """The (ncells, ntest_local) whitened loads z = L^{-1} l of one
        case and its assembled load f = sum of W_K^T z_K; those of the
        last case object are kept, for assemble and estimate."""
        if self._load is None or self._load[0] is not case:
            if case is not None:
                fm.check_case(self.form, case)
            st, cells = self.element_stacks, np.arange(self.mesh.ncells)
            z = np.concatenate([_matvec(st.Linv[st.cls[part]], fm.load_vector(
                self.form, _CellGroup(self, cells[part]), case))
                for part in st.parts])
            self._load = (case, z, self._scatter(st.adjoint_apply(z)))
        return self._load[1:]

    def _scatter(self, vals):
        """Sum (ncells, nloc) per-cell column values into a global vector."""
        return _accumulate(self._columns[0], vals, self.ndof)

    # -- global system ---------------------------------------------------

    def _matrix(self):
        """Sparse sum of the condensed element matrices."""
        st = self.element_stacks
        # A = W^T W per class, gathered to the cells
        return class_matrix(np.swapaxes(st.W, 1, 2) @ st.W, st.cls, st.cols,
                            st.facs, self.ndof)

    def assemble(self, case=None):
        """Phased condensed system (A, f), cells in ascending order: the
        real symmetric D_x^H A D_x and D_x^H f."""
        # the load first: its temporaries, made after the matrix, would
        # raise the peak memory (by 20 MB of 322 on 320 Maxwell tets); a
        # copy, so that the kept load does not change with the caller's
        f = self._whitened_load(case)[1].copy()
        return self._matrix(), f

    def constrained_dofs(self):
        """Mask of dofs removed by homogeneous essential conditions."""
        mask = np.zeros(self.ndof, dtype=bool)
        for s in self.form.trial_slots + self.form.interface_slots:
            if not s.zero_boundary:
                continue
            m = self._maps[s.name]
            mask[self.slot_offset[s.name] + np.where(m.boundary)[0]] = True
        return mask

    def solve(self, A, f):
        """Direct solve of the reduced phased system A y = f of
        ``assemble``; returns the full physical vector x = D_x y."""
        free, Aff = self._free_block(A)
        f = self._check_vector("f", f)
        ff = f[free]
        try:
            lu = _factor(Aff)
        except RuntimeError as exc:
            ritz = _smallest_ritz(Aff)
            raise SingularSystemError(
                f"condensed system is singular ({exc}); "
                f"smallest Ritz value {ritz:.3e}", ritz) from exc
        yf = _by_parts(lu.solve, ff)
        # the normwise backward error |r| / (|A| |y| + |f|) in the max
        # norm, with |A| taken as A's largest entry: for SPD A that is its
        # largest diagonal entry, an O(n) scale.  Unlike |r| / |f|, it
        # stays at rounding level however ill-conditioned A is.
        scale = (Aff.diagonal().max(initial=0.0) * np.abs(yf).max(initial=0.0)
                 + np.abs(ff).max(initial=0.0))
        err = np.abs(Aff @ yf - ff).max(initial=0.0) / (scale or 1.0)
        if not err <= 1e-10:  # a NaN residual fails too
            raise RuntimeError(
                f"linear solve residual {err:.3e} exceeds 1e-10 "
                f"(normwise backward error)")
        x = np.zeros(self.ndof, dtype=np.result_type(yf, self.dof_phases))
        x[free] = yf * self.dof_phases[free]
        return x

    def _check_vector(self, name, v):
        """v as an array, or a ValueError unless it holds one entry per
        dof."""
        v = np.asarray(v)
        if v.shape != (self.ndof,):
            raise ValueError(f"{name} has shape {v.shape}, but ndof is "
                             f"{self.ndof}")
        return v

    def _free_block(self, A):
        """The dofs that no essential condition removes and the CSC block
        of a real sparse ndof x ndof matrix A on them, or a ValueError."""
        if not sparse.issparse(A):
            raise ValueError(f"A must be a scipy sparse matrix, not "
                             f"{type(A).__name__}")
        if np.iscomplexobj(A):
            raise ValueError(f"A has dtype {A.dtype}, but the condensed "
                             f"system is real (see assemble)")
        if A.shape != (self.ndof, self.ndof):
            raise ValueError(f"A has shape {A.shape}, but ndof is {self.ndof}")
        free = np.flatnonzero(~self.constrained_dofs())
        return free, A[np.ix_(free, free)].tocsc()

    def conditioning(self, A):
        """One-norm condition estimate of the reduced condensed matrix.

        Reported as a diagnostic; near-resonant Maxwell parameters show
        up here rather than through any dedicated detection.
        """
        Aff = self._free_block(A)[1]
        if Aff.shape[0] == 0:
            return 1.0
        try:
            lu = _factor(Aff)
        except RuntimeError:
            return np.inf
        op = sparse.linalg.LinearOperator(
            Aff.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, "T"),
            dtype=Aff.dtype)
        # the norm of Aff is exact and the inverse's is Hager's estimate
        # from one start vector, which draws no random numbers, so the
        # diagnostic is the same on every call
        na = abs(Aff).sum(axis=0).max()
        ni = sparse.linalg.onenormest(op, t=1)
        return float(na * ni)

    # -- residual estimator ----------------------------------------------

    def estimate(self, x, case=None):
        """Residual error indicators and the Riesz orthogonality check of
        a physical solution x."""
        y = self._check_vector("x", x) * self.dof_phases.conj()
        st = self.element_stacks
        z, fvec = self._whitened_load(case)
        e = z - st.apply(y[self._columns[0]])
        eta2 = np.sum(np.abs(e) ** 2, axis=1)
        resid = self._scatter(st.adjoint_apply(e))
        free = ~self.constrained_dofs()
        scale = np.abs(fvec[free]).max(initial=0.0)
        ortho = float(np.abs(resid[free]).max(initial=0.0) / (scale or 1.0))
        return EstimateResult(np.sqrt(eta2), float(np.sqrt(eta2.sum())), ortho)

    # -- errors against manufactured solutions ----------------------------

    def field_coefficients(self, x, name, ci):
        """Local coefficients of a slot on one cell or a slice of cells."""
        m = self._maps[name]
        return x[self.slot_offset[name] + m.cell_dofs[ci]] * m.cell_factors[ci]

    def measure_error(self, x, case):
        """Per-slot errors in the trial norms.

        Field slots integrate the difference with the exact fields; the
        natural norm adds the family derivative for conforming slots.
        Interface slots compare against the facet projection of the
        exact trace, measured by the minimum-energy extension into the
        conforming test-degree volume space.
        """
        if not case.has_exact:
            raise ValueError(f"case {case.name!r} has no exact solution")
        fm.check_case(self.form, case)
        x = self._check_vector("x", x)
        rtab, dim = self._ref_tables, self.mesh.dim
        nq = len(rtab.vrule.weights)
        # (slot, 'val' | 'der') -> the exact field it is measured against
        fields = {(s.name, op): case.fields[name]
                  for s in self.form.trial_slots
                  for op, name in zip(("val", "der"), fm.measured_names(s))}
        sq = dict.fromkeys(fields, 0.0)
        # errors are summed per group of the element stacks, exact fields
        # evaluated on runs of groups sized by their complex values
        groups = self._groups(self.mesh.ncells)
        for run in cell_groups(len(groups), 16 * nq * dim * len(fields)
                               * groups[0].stop):
            run = groups[run]
            block = slice(run[0].start, run[-1].stop)
            pts = rtab.physical_points(block).reshape(-1, dim)
            w = rtab.volume_weights(block)
            exact = {key: np.asarray(f(pts)).reshape(len(w), nq, -1)
                     for key, f in fields.items()}
            for cells in run:
                loc = slice(cells.start - block.start,
                            cells.stop - block.start)
                for (name, op), ex in exact.items():
                    c = self.field_coefficients(x, name, cells)
                    tab = self._tables[name]
                    X = tab.table(op)
                    vals = (c @ X.reshape(len(X), -1)).reshape(
                        len(c), nq, -1) @ tab.factor(op, cells)
                    diff = vals - ex[loc]
                    sq[name, op] += float(np.sum(w[loc, :, None]
                                                 * np.abs(diff) ** 2))
        out = {}
        total2 = 0.0
        cls = self.mesh.geometry.shape_classes[1]
        for s in self.form.trial_slots:
            e2, d2 = sq[s.name, "val"], sq.get((s.name, "der"), 0.0)
            out[s.name] = {"l2": np.sqrt(e2), "natural": np.sqrt(e2 + d2)}
            total2 += e2 + d2
        for s in self.form.interface_slots:
            space = self._interfaces[s.name]
            off = self.slot_offset[s.name]
            delta = (self.project_exact(s, case)
                     - x[off:off + space.dofmap.ndofs])
            err = float(np.sqrt(skeleton_quotient_apply(
                space.cell_grams, cls, space.dofmap, delta)))
            out[s.name] = {"natural": err}
            total2 += err ** 2
        out["total"] = np.sqrt(total2)
        return out

    def project_exact(self, slot, case):
        """Facet L2 projection of an interface slot's exact trace onto its
        space, in the slot's coefficients."""
        space = self._interfaces[slot.name]
        sign, field = fm.exact_interface(self.form, case, slot.name)

        def target(x, n):
            # the (P, r) traces at P points with canonical normals n
            v = np.reshape(sign * np.asarray(field(x)), (len(n), -1))
            return np.einsum("pc,pcr->pr", v, trace_factor(space.kind, n))

        b = trace_rhs(space, target)
        return _by_parts(space.mass_lu.solve, b)

    def interface_quotient_gram(self, slot_name):
        """Sparse minimum-energy-extension Gram of one interface slot."""
        names = [s.name for s in self.form.interface_slots]
        if slot_name not in names:
            raise ValueError(
                f"{slot_name!r} is not an interface slot of {self.form.id}; "
                f"its interface slots are {names}")
        space = self._interfaces[slot_name]
        return skeleton_quotient_gram(space.cell_grams,
                                      self.mesh.geometry.shape_classes[1],
                                      space.dofmap)

    # -- trial-side norm and the norm of b ---------------------------------

    def trial_gram(self):
        """Sparse (CSC) trial-norm Gram G_X over all trial dofs: one block
        per slot, in slot order.  Conforming field slots use their family
        graph norm, broken slots the L2 norm, interface slots their
        quotient norm."""
        form = self.form
        blocks = [natural_gram(self._tables[s.name], self._maps[s.name],
                               include_deriv=s.continuity == "conforming")
                  for s in form.trial_slots]
        blocks += [self.interface_quotient_gram(s.name)
                   for s in form.interface_slots]
        return sparse.block_diag(blocks, format="csc")

    def opnorm(self, seed=0):
        """Largest generalized singular value of b over X x Y.

        ||b||^2 is the top eigenvalue of the pencil (A, G_X): A the
        condensed matrix B^H G_Y^{-1} B with the broken Y norm, G_X the
        trial graph norms (quotient norms on interfaces).  A Lanczos
        iteration on G_X^{-1} A, in the G_X inner product and fully
        reorthogonalized, runs from a seeded random vector for at most
        ``_OPNORM_STEPS`` steps and returns the square root of its top
        Ritz value.  That is a lower bound of ||b||: when the top of the
        spectrum is clustered the iteration stops before it converges.
        """
        Gx = self.trial_gram()
        lu = _factor(Gx)
        A = self._matrix()
        v = np.random.default_rng(seed).standard_normal(self.ndof)
        # the G_X-orthonormal Lanczos vectors, one per row
        Q = np.zeros((min(_OPNORM_STEPS, self.ndof), self.ndof))
        Q[0] = v / np.sqrt(v @ (Gx @ v))
        alpha, beta = [], []
        val = 0.0
        for k in range(len(Q)):
            # w = G_X^{-1} A q_k, G_X-orthogonalized against q_0..q_k
            # (two classical Gram-Schmidt passes); G_X w = A q_k at first
            Aq = A @ Q[k]
            alpha.append(Q[k] @ Aq)
            w, Gw = lu.solve(Aq), Aq
            for _ in range(2):
                w -= (Q[:k + 1] @ Gw) @ Q[:k + 1]
                Gw = Gx @ w
            beta.append(np.sqrt(max(w @ Gw, 0.0)))
            top = eigh_tridiagonal(alpha, beta[:-1], eigvals_only=True,
                                   select="i", select_range=(k, k))[0]
            new = np.sqrt(max(top, 0.0))
            if (abs(new - val) <= _OPNORM_TOL * max(new, 1.0)
                    or beta[-1] == 0 or k + 1 == len(Q)):
                return float(new)
            val = new
            Q[k + 1] = w / beta[-1]


class EstimateResult:
    def __init__(self, eta_cells, eta, orthogonality):
        self.eta_cells = eta_cells
        self.eta = eta
        self.orthogonality = orthogonality


def _lower_inverse(L):
    """Inverse of one lower triangular matrix or a stack."""
    return inv(L, assume_a="lower triangular", check_finite=False)


def _inverse_cholesky(G):
    """L^{-1} for the lower Cholesky factor L of one Gram or a stack,
    so that G^{-1} = L^{-H} L^{-1}."""
    return _lower_inverse(np.linalg.cholesky(G))


def condense(G, B, l=None):
    """Element normal equations: A = B^H G^{-1} B, f = B^H G^{-1} l."""
    Linv = _inverse_cholesky(G)
    W = Linv @ B
    Wh = np.swapaxes(W.conj(), -1, -2)
    if l is None:
        return Wh @ W
    return Wh @ W, _matvec(Wh, _matvec(Linv, l))


# The process's table of class stacks holds at most this many bytes of
# them; the entries used longest ago leave first.
_STACK_TABLE_BYTES = 2 ** 26


class _StackTable:
    """The (Linv, W) stacks of one class, by formulation content and class
    key (``Discretization._class_key``), of every class that a
    Discretization of this process evaluated: the meshes of a ladder or
    an adaptive run repeat most of their classes.  Entries are copies,
    and every Discretization copies its rows out, so neither a caller
    nor an eviction changes the other's."""

    def __init__(self):
        self._rows = OrderedDict()
        self.nbytes = 0

    def get(self, key):
        row = self._rows.get(key)
        if row is not None:
            self._rows.move_to_end(key)
        return row

    def put(self, key, Linv, W):
        row = self._rows[key] = (Linv.copy(), W.copy())
        self.nbytes += Linv.nbytes + W.nbytes
        while self.nbytes > _STACK_TABLE_BYTES:
            _, old = self._rows.popitem(last=False)
            self.nbytes -= old[0].nbytes + old[1].nbytes
        return row

    def clear(self):
        self._rows.clear()
        self.nbytes = 0


_STACKS = _StackTable()


class _ElementStacks:
    """Case-independent element data of a Discretization, one entry per
    class of cells (``Discretization._cell_classes``): per class the
    inverse Cholesky factors Linv = L^{-1} of the test Grams G = L L^H
    and the whitened blocks W = L^{-1} B in local coefficients; per cell
    its class index cls, global columns cols and their orientation
    factors facs.  A cell's whitened block in global coefficients is
    W[cls] times its factors.  The classes that the process's table
    lacks are evaluated on their first cells and added to it."""

    def __init__(self, disc):
        self.cols, self.facs = disc._columns
        self.reps, self.cls = disc._cell_classes()
        # cell groups for gathering class stacks to the cells
        self.parts = disc._groups(disc.mesh.ncells)
        content, key = disc._class_key
        keys = [(content, k.tobytes()) for k in key[self.reps]]
        rows = [_STACKS.get(k) for k in keys]
        missing = np.array([i for i, row in enumerate(rows) if row is None],
                           dtype=int)
        for part in disc._groups(len(missing)):
            classes = missing[part]
            G, B = disc._evaluate(_CellGroup(disc, self.reps[classes]))
            Linv = _inverse_cholesky(G)
            for i, L, W in zip(classes, Linv, Linv @ B):
                rows[i] = _STACKS.put(keys[i], L, W)
        self.Linv = np.stack([row[0] for row in rows])
        self.W = np.stack([row[1] for row in rows])

    def apply(self, x):
        """W_K x_K per cell for (ncells, nloc) column values x."""
        return class_apply(self.W, self.cls, x * self.facs, self.parts)

    def adjoint_apply(self, e):
        """W_K^T e_K per cell for (ncells, ntest_local) values e."""
        return class_apply(self.W, self.cls, e, self.parts, True) * self.facs


class _CellGroup:
    """The form evaluators' context for an index array of cells:
    reference operands with their per-cell factors, weight scales,
    quadrature points and coefficients of those cells."""

    def __init__(self, disc, cells):
        self.disc, self.cells = disc, cells
        self.ncells = len(cells)
        self.ntest_local = disc.ntest_local
        self.test_offset = disc.test_offset
        self.absdet = disc.mesh.geometry.absdet[cells]
        self._factors = {}

    @cached_property
    def points(self):
        return self.disc._ref_tables.physical_points(self.cells)

    def _factor(self, name, kind):
        F = self._factors.get((name, kind))
        if F is None:
            F = self._factors[name, kind] = self.disc._tables[name].factor(
                kind, self.cells)
        return F

    def operand(self, operand):
        name, kind = operand
        return (self.disc._tables[name].reference(kind),
                self._factor(name, kind))

    def facet(self, name, lf):
        return (self.disc._tables[name].reference("val", lf),
                self._factor(name, "val"))

    def interface(self, name):
        space = self.disc._interfaces[name]
        F = space.tables.factor("val", self.cells)
        return ([((ref, F @ trace_factor(space.kind, self.normal(lf))), act)
                 for lf, (ref, act) in enumerate(zip(space.refs,
                                                     space.active))],
                space.dofmap.cell_dofs.shape[1])

    def facet_scale(self, lf):
        return self.disc._ref_tables.facet_scale(self.cells, lf)

    def normal(self, lf):
        return self.disc.mesh.geometry.outward_normal(self.cells, lf)

    def coef(self, key):
        """A constant, or per-cell values shaped to broadcast against
        (K, r, ncomp) factors."""
        val = np.asarray(self.disc.form.params[key], dtype=float)
        if key == "beta":
            return val if val.ndim == 1 else val[self.cells, None, :]
        return float(val) if val.ndim == 0 else val[self.cells, None, None]


def _smallest_ritz(A):
    """Smallest-magnitude eigenvalue estimate of a symmetric matrix."""
    n = A.shape[0]
    if n == 0:
        return 0.0
    H = 0.5 * (A + A.T)
    if n <= 3000:
        vals = np.linalg.eigvalsh(np.asarray(H.todense()))
        return float(vals[np.argmin(np.abs(vals))])
    try:
        val = sparse.linalg.eigsh(H, k=1, which="SM",
                                  return_eigenvectors=False, maxiter=2000)
        return float(val[0])
    except sparse.linalg.ArpackError:
        return float("nan")
