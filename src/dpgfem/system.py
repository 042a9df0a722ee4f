"""Element-level optimal-test algebra, global assembly, solve, estimate.

On each cell the broken test space carries a Gram matrix G, the mixed
form a rectangular block B (test rows, trial columns) and the load a
vector l.  The trial-side normal equations

    A_K = B^H G^{-1} B,    f_K = B^H G^{-1} l

are accumulated into a Hermitian global system.  The same element data
drives the residual error estimator: with eps_K = G^{-1}(l - B x) the
local indicator is eta_K^2 = eps_K^H G eps_K.

All cells share the local sizes, so the form evaluators work on stacks
of cells, in groups whose tables fit a fixed memory budget.  A
Discretization builds the case-independent stacks once, on first use:
the inverse Cholesky factors L^{-1} of G = L L^H and the whitened
blocks W = L^{-1} B.  With them A_K = W^H W, f_K = W^H L^{-1} l, and
eta_K is the norm of L^{-1} l - W x_K = L^H eps_K.  Assembly, the
estimator, the operator norm and the dense diagnostics read the
stacks; only the load is evaluated per case.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import splu

from . import formulations as fm
from .quadrature import simplex_rule
from .reference import MeshGeometry, conforming_basis, modal_basis
from .spaces import (
    ElementTables,
    TraceField,
    broken_map,
    cell_groups,
    conforming_map,
    facet_map,
    natural_gram,
    skeleton_quotient_apply,
    skeleton_quotient_gram,
    skeleton_schur,
    trace_embedding,
    trace_mass,
    trace_rhs,
)


def _lusolve(lu, b):
    """Solve with a real LU factorization for a possibly complex rhs."""
    if np.iscomplexobj(b):
        return lu.solve(np.real(b)) + 1j * lu.solve(np.imag(b))
    return lu.solve(b)


class SingularSystemError(RuntimeError):
    """Raised when the condensed system cannot be factorized."""

    def __init__(self, message, smallest_ritz=None):
        super().__init__(message)
        self.smallest_ritz = smallest_ritz


def _exact_names(slot_name):
    """Exact field and exact derivative entries for a trial slot."""
    table = {
        "u": ("u", "grad_u"),
        "sigma": ("sigma", "div_sigma"),
        "E": ("E", "curl_E"),
        "H": ("H", "curl_H"),
    }
    return table[slot_name]


class Discretization:
    """One formulation realized on one mesh.

    Coefficients given as arrays hold one value (one vector for beta)
    per cell.  The element stacks are built on first use and kept.
    """

    def __init__(self, formulation, mesh, volume_order=None, facet_order=None):
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
        self.geo = MeshGeometry(mesh)
        q = formulation.p + formulation.delta
        self.volume_order = volume_order if volume_order else 2 * q + 4
        self.facet_order = facet_order if facet_order else 2 * q + 4
        self.frule = simplex_rule(mesh.dim - 1, self.facet_order)

        self._tables = {}
        self._maps = {}
        self._flux_vals = {}
        self.slot_offset = {}
        self.slot_size = {}
        offset = 0
        for s in formulation.trial_slots + formulation.interface_slots:
            dmap = self._build_slot(s)
            self._maps[s.name] = dmap
            self.slot_offset[s.name] = offset
            self.slot_size[s.name] = dmap.ndofs
            offset += dmap.ndofs
        self.ndof = offset
        self.ndof_field = sum(self.slot_size[s.name]
                              for s in formulation.trial_slots)

        self._test_offsets = {}
        at = 0
        for s in formulation.test_slots:
            basis = modal_basis(s.family, s.degree, mesh.dim)
            self._tables[s.name] = ElementTables(
                mesh, basis, self.geo, self.volume_order, self.facet_order)
            self._test_offsets[s.name] = at
            at += basis.nfuncs
        self.ntest_local = at
        self._ref_tables = self._tables[formulation.test_slots[0].name]
        self._iface_norms = {}

    # -- space construction -------------------------------------------

    def _build_slot(self, s):
        mesh, dim = self.mesh, self.mesh.dim
        if s.continuity == "facet":
            basis = modal_basis("l2", s.degree, dim - 1)
            self._flux_vals[s.name] = basis.values(self.frule.points)[:, :, 0]
            return facet_map(mesh, basis.nfuncs)
        basis = (conforming_basis(s.family, s.degree, dim)
                 if s.continuity in ("conforming", "skeleton")
                 else modal_basis(s.family, s.degree, dim))
        self._tables[s.name] = ElementTables(
            mesh, basis, self.geo, self.volume_order, self.facet_order)
        if s.continuity == "broken":
            return broken_map(mesh, basis.nfuncs)
        return conforming_map(mesh, basis, self.geo,
                              skeleton=s.continuity == "skeleton")

    def dofmap(self, name):
        return self._maps[name]

    def flux_basis(self, name):
        return self._flux_vals[name]

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

    def cell_columns(self, ci):
        """Global column dofs and factors of one cell, field slots first."""
        dofs, facs = self._columns
        return dofs[ci], facs[ci]

    def _groups(self):
        """Slices of consecutive cells, each evaluated as one stack, sized
        by the real test-function table."""
        nq = len(self._ref_tables.vrule.weights)
        return cell_groups(self.mesh.ncells,
                           8 * nq * self.ntest_local * self.mesh.dim)

    def _evaluate(self, group):
        """(G, B) stacks of a cell group, B in global coefficients."""
        form = self.form
        G = fm.y_gram(form, group)
        B = np.concatenate([fm.b0_block(form, group),
                            fm.bhat_block(form, group)], axis=-1)
        return G, B * self._columns[1][group.cells][:, None, :]

    def element_system(self, ci, case=None):
        """(G, B, l) on one cell, trial columns in global coefficients."""
        group = _CellGroup(self, slice(ci, ci + 1))
        G, B = self._evaluate(group)
        l = fm.load_vector(self.form, group, case)
        return G[0], B[0], l[0]

    @cached_property
    def element_stacks(self):
        """The case-independent element stacks of all cells."""
        return _ElementStacks(self)

    def _loads(self, case):
        """(ncells, ntest_local) load vectors of one case."""
        l = np.zeros((self.mesh.ncells, self.ntest_local),
                     dtype=self.form.dtype)
        if case is not None:
            for cells in self._groups():
                l[cells] = fm.load_vector(self.form,
                                          _CellGroup(self, cells), case)
        return l

    def _scatter(self, vals):
        """Sum (ncells, nloc) per-cell column values into a global vector."""
        out = np.zeros(self.ndof, dtype=vals.dtype)
        np.add.at(out, self._columns[0], vals)
        return out

    # -- global system ---------------------------------------------------

    def _matrix(self):
        """Sparse sum of the condensed element matrices."""
        W, dofs = self.element_stacks.W, self._columns[0]
        m = dofs.shape[1]
        rows, cols = np.repeat(dofs, m, axis=1), np.tile(dofs, (1, m))
        return sparse.coo_matrix(
            ((_adjoint(W) @ W).ravel(), (rows.ravel(), cols.ravel())),
            shape=(self.ndof, self.ndof), dtype=self.form.dtype).tocsc()

    def assemble(self, case=None):
        """Hermitian condensed system (A, f), cells in ascending order."""
        st = self.element_stacks
        f_K = _matvec(_adjoint(st.W), _matvec(st.Linv, self._loads(case)))
        return self._matrix(), self._scatter(f_K)

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
        """Direct solve of the reduced system; returns the full vector."""
        mask = self.constrained_dofs()
        free = np.where(~mask)[0]
        Aff = A[np.ix_(free, free)].tocsc()
        ff = f[free]
        try:
            lu = splu(Aff)
        except RuntimeError as exc:
            ritz = _smallest_ritz(Aff)
            raise SingularSystemError(
                f"condensed system is singular ({exc}); "
                f"smallest Ritz value {ritz:.3e}", ritz) from exc
        xf = lu.solve(ff)
        scale = np.linalg.norm(ff)
        if scale > 0:
            rel = np.linalg.norm(Aff @ xf - ff) / scale
            if rel > 1e-10:
                raise RuntimeError(
                    f"linear solve residual {rel:.3e} exceeds 1e-10")
        x = np.zeros(self.ndof, dtype=f.dtype)
        x[free] = xf
        return x

    def conditioning(self, A):
        """One-norm condition estimate of the reduced condensed matrix.

        Reported as a diagnostic; near-resonant Maxwell parameters show
        up here rather than through any dedicated detection.
        """
        mask = self.constrained_dofs()
        free = np.where(~mask)[0]
        Aff = A[np.ix_(free, free)].tocsc()
        if Aff.shape[0] == 0:
            return 1.0
        try:
            lu = splu(Aff)
        except RuntimeError:
            return np.inf
        op = sparse.linalg.LinearOperator(
            Aff.shape, matvec=lu.solve,
            rmatvec=lambda v: lu.solve(v.conj(), trans="T").conj(),
            dtype=Aff.dtype)
        # the norm of Aff is exact and the inverse's is Hager's estimate
        # from one start vector, which draws no random numbers, so the
        # diagnostic is the same on every call
        na = abs(Aff).sum(axis=0).max()
        ni = sparse.linalg.onenormest(op, t=1)
        return float(na * ni)

    # -- residual estimator ----------------------------------------------

    def estimate(self, x, case=None):
        """Residual error indicators and the Riesz orthogonality check."""
        st = self.element_stacks
        z = _matvec(st.Linv, self._loads(case))
        e = z - _matvec(st.W, x[self._columns[0]])
        eta2 = np.sum(np.abs(e) ** 2, axis=1)
        Wh = _adjoint(st.W)
        resid = self._scatter(_matvec(Wh, e))
        fvec = self._scatter(_matvec(Wh, z))
        free = ~self.constrained_dofs()
        scale = np.max(np.abs(fvec[free])) if np.any(free) else 0.0
        if scale == 0.0:
            ortho = float(np.max(np.abs(resid[free]))) if np.any(free) else 0.0
        else:
            ortho = float(np.max(np.abs(resid[free])) / scale)
        return EstimateResult(np.sqrt(eta2), float(np.sqrt(eta2.sum())), ortho)

    # -- explicit optimal-test Petrov-Galerkin path -----------------------

    def pg_assemble(self, case=None):
        """Assemble by explicitly constructing the optimal test functions.

        Each trial column j gets its own test function t_j with
        coefficients G^{-1} B e_j; the stiffness entry is b(phi_j, t_i).
        Algebraically equal to the condensed normal equations, built
        through the test-function route as an independent check.
        """
        dtype = self.form.dtype
        rows, cols, vals = [], [], []
        f = np.zeros(self.ndof, dtype=dtype)
        for ci in range(self.mesh.ncells):
            G, B, l = self.element_system(ci, case)
            cho = cho_factor(G, lower=True)
            T = cho_solve(cho, B)
            M = T.conj().T @ B
            f_K = T.conj().T @ l
            idx, _ = self.cell_columns(ci)
            rows.append(np.repeat(idx, len(idx)))
            cols.append(np.tile(idx, len(idx)))
            vals.append(M.ravel())
            f[idx] += f_K
        A = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.ndof, self.ndof), dtype=dtype).tocsc()
        return A, f

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
        rtab = self._ref_tables
        w = rtab.volume_weights(slice(None))
        pts = rtab.physical_points(slice(None))
        nc, nq, dim = pts.shape
        # (slot, 'val' | 'der') -> exact values at every quadrature point
        exact = {}
        for s in self.form.trial_slots:
            fname, dname = _exact_names(s.name)
            fields = {"val": case.fields[fname]}
            if (s.continuity == "conforming"
                    and case.fields.get(dname) is not None):
                fields["der"] = case.fields[dname]
            for op, field in fields.items():
                ex = np.asarray(field(pts.reshape(-1, dim)))
                exact[s.name, op] = ex.reshape(nc, nq, -1)
        sq = dict.fromkeys(exact, 0.0)
        for cells in self._groups():
            group = _CellGroup(self, cells)
            for (name, op), ex in exact.items():
                c = self.field_coefficients(x, name, cells)
                tab = group.table((name, op))
                vals = c[:, None, :] @ tab.reshape(tab.shape[:-2] + (-1,))
                diff = vals.reshape(ex[cells].shape) - ex[cells]
                sq[name, op] += float(np.sum(w[cells, :, None]
                                             * np.abs(diff) ** 2))
        out = {}
        total2 = 0.0
        for s in self.form.trial_slots:
            e2, d2 = sq[s.name, "val"], sq.get((s.name, "der"), 0.0)
            out[s.name] = {"l2": np.sqrt(e2), "natural": np.sqrt(e2 + d2)}
            total2 += e2 + d2
        for s in self.form.interface_slots:
            err = self._interface_norm(s).error(x, case)
            out[s.name] = {"natural": err}
            total2 += err ** 2
        out["total"] = np.sqrt(total2)
        return out

    def _interface_norm(self, slot):
        if slot.name not in self._iface_norms:
            self._iface_norms[slot.name] = _InterfaceNorm(self, slot)
        return self._iface_norms[slot.name]

    def interface_quotient_gram(self, slot_name):
        """Sparse minimum-energy-extension Gram of one interface slot."""
        slot = self.form.slot(slot_name)
        return self._interface_norm(slot).quotient_gram()

    # -- trial-side norm operator and the norm of b ------------------------

    def xnorm_solver(self):
        return _XNormSolver(self)

    def opnorm(self, niter=120, seed=0, tol=1e-11):
        """Largest generalized singular value of b over X x Y.

        Power iteration on G_X^{-1} B^H G_Y^{-1} B with the trial graph
        norms (quotient norms on interfaces) and the broken Y norm.
        The result is the Rayleigh quotient after at most ``niter``
        steps, a lower bound of ||b||: when the top of the spectrum is
        clustered the iteration stops before it converges.
        """
        xs = self.xnorm_solver()
        A = self._matrix()
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.ndof)
        if self.form.is_complex:
            v = v + 1j * rng.standard_normal(self.ndof)
        v /= np.sqrt(np.real(np.vdot(v, xs.apply(v))))
        val = 0.0
        for _ in range(niter):
            # y-residual application: A v = sum over cells B^H G^{-1} B v
            w = A @ v
            new = np.sqrt(max(float(np.real(np.vdot(v, w))), 0.0))
            v = xs.solve(w)
            nv = np.sqrt(np.real(np.vdot(v, xs.apply(v))))
            if nv == 0:
                return 0.0
            v /= nv
            if abs(new - val) <= tol * max(new, 1.0):
                val = new
                break
            val = new
        return float(val)


class EstimateResult:
    def __init__(self, eta_cells, eta, orthogonality):
        self.eta_cells = eta_cells
        self.eta = eta
        self.orthogonality = orthogonality


def _adjoint(M):
    return np.swapaxes(M.conj(), -1, -2)


def _matvec(M, v):
    """Stacked matrix-vector products: (..., n, m) times (..., m)."""
    return (M @ v[..., None])[..., 0]


def _inverse_cholesky(G):
    """L^{-1} for the lower Cholesky factor L of one Gram or a stack,
    so that G^{-1} = L^{-H} L^{-1}."""
    return np.linalg.inv(np.linalg.cholesky(G))


def condense(G, B, l=None):
    """Element normal equations: A = B^H G^{-1} B, f = B^H G^{-1} l."""
    Linv = _inverse_cholesky(G)
    W = Linv @ B
    A = _adjoint(W) @ W
    if l is None:
        return A
    return A, _matvec(_adjoint(W), _matvec(Linv, l))


class _ElementStacks:
    """Case-independent element data of every cell of a Discretization:
    the global columns cols (ncells, nloc), the inverse Cholesky factors
    Linv = L^{-1} of the test Grams G = L L^H and the whitened blocks
    W = L^{-1} B, whose products A_K = W^H W are the condensed element
    matrices."""

    def __init__(self, disc):
        self.cols = disc._columns[0]
        nc, m = disc.mesh.ncells, self.cols.shape[1]
        self.Linv = self.W = None
        for cells in disc._groups():
            G, B = disc._evaluate(_CellGroup(disc, cells))
            Linv = _inverse_cholesky(G)
            if self.Linv is None:
                self.Linv = np.empty((nc,) + Linv.shape[1:], dtype=G.dtype)
                self.W = np.empty((nc, len(G[0]), m), dtype=B.dtype)
            self.Linv[cells] = Linv
            self.W[cells] = Linv @ B

    def gram_and_block(self):
        """(G, B) stacks, recovered from the factors."""
        L = np.linalg.inv(self.Linv)
        return L @ _adjoint(L), L @ self.W


class _CellGroup:
    """The form evaluators' context for a slice of consecutive cells:
    tables, weights and coefficients of those cells, each table pushed
    once per group."""

    def __init__(self, disc, cells):
        self.disc, self.cells = disc, cells
        self.ncells = len(range(*cells.indices(disc.mesh.ncells)))
        self.ntest_local = disc.ntest_local
        self.test_offset, self.flux_basis = disc.test_offset, disc.flux_basis
        self.w = disc._ref_tables.volume_weights(cells)
        self.points = disc._ref_tables.physical_points(cells)
        self._pushed = {}

    def table(self, operand):
        tab = self._pushed.get(operand)
        if tab is None:
            name, op = operand
            tables = self.disc._tables[name]
            tab = self._pushed[operand] = (
                tables.derivs(self.cells) if op == "der"
                else tables.values(self.cells))
        return tab

    def facet(self, name, lf):
        return self.disc._tables[name].facet_values(self.cells, lf)

    def fw(self, lf):
        return self.disc._ref_tables.facet_weights(self.cells, lf)

    def normal(self, lf):
        return self.disc.geo.outward_normal(self.cells, lf)

    def skeleton_facets(self, name):
        use = self.disc.dofmap(name).local_functions
        tab = self.disc._tables[name]
        return [tab.facet_values(self.cells, lf)[..., use, :, :]
                for lf in range(self.disc.mesh.dim + 1)]

    def coef(self, key):
        """A constant, or per-cell values shaped to broadcast against
        (K, n, nq, ncomp) tables."""
        val = np.asarray(self.disc.form.params[key], dtype=float)
        if key == "beta":
            return val if val.ndim == 1 else val[self.cells, None, None, :]
        return float(val) if val.ndim == 0 else \
            val[self.cells, None, None, None]


def _smallest_ritz(A):
    """Smallest-magnitude eigenvalue estimate of a Hermitian matrix."""
    n = A.shape[0]
    if n == 0:
        return 0.0
    H = 0.5 * (A + A.conj().T)
    if n <= 3000:
        vals = np.linalg.eigvalsh(np.asarray(H.todense()))
        return float(vals[np.argmin(np.abs(vals))])
    try:
        val = sparse.linalg.eigsh(H, k=1, which="SM",
                                  return_eigenvectors=False, maxiter=2000)
        return float(val[0])
    except Exception:
        return float("nan")


class _InterfaceNorm:
    """Projection and quotient-norm machinery for one interface slot.

    The slot is measured in the quotient norm of its conforming parent
    space at the test degree: a slot function's trace is lifted into the
    parent skeleton by the sparse trace embedding V, and the lift is
    measured by the per-cell Schur complements of the parent graph Gram
    onto the skeleton functions.  V, the Schur complements and the facet
    masses are built on first use and kept.
    """

    def __init__(self, disc, slot):
        self.disc = disc
        self.slot = slot
        mesh, dim = disc.mesh, disc.mesh.dim
        q = disc.form.p + disc.form.delta
        if slot.continuity == "facet":
            family, ikind, pkind = "hdiv", "flux", "normal"
        elif slot.family == "h1":
            family, ikind, pkind = "h1", "value", "value"
        else:
            family, ikind, pkind = "hcurl", "tangential", "tangential"
        self.ikind = ikind
        parent = conforming_basis(family, q, dim)
        self.ptables = ElementTables(mesh, parent, disc.geo,
                                     disc.volume_order, disc.facet_order)
        self.pskel = conforming_map(mesh, parent, disc.geo, skeleton=True)
        self.ptrace = TraceField(mesh, self.pskel, pkind, self.ptables)
        imap = disc.dofmap(slot.name)
        if slot.continuity == "facet":
            self.itrace = TraceField(mesh, imap, "flux",
                                     flux_values=disc.flux_basis(slot.name))
        else:
            self.itrace = TraceField(mesh, imap, ikind,
                                     tables=disc._tables[slot.name])

    @cached_property
    def _mass(self):
        """The slot's facet trace mass matrix."""
        return trace_mass(self.disc.mesh, self.ptables, self.itrace)

    @cached_property
    def _mass_lu(self):
        return splu(self._mass)

    @cached_property
    def embedding(self):
        """Sparse V: parent skeleton coefficients with the traces of the
        slot functions, checked to reproduce them (Mq V = Cx)."""
        mesh, tab = self.disc.mesh, self.ptables
        V = trace_embedding(mesh, tab, self.ptrace, self.itrace)
        Mq = trace_mass(mesh, tab, self.ptrace)
        Cx = trace_mass(mesh, tab, self.ptrace, self.itrace)
        # squared trace residual of every slot function; the parent trace
        # reproduces it exactly by degree nesting
        tn2 = self._mass.diagonal()
        r2 = (np.asarray(V.multiply(Mq @ V).sum(axis=0)).ravel()
              - 2.0 * np.asarray(V.multiply(Cx).sum(axis=0)).ravel() + tn2)
        excess = r2 - 1e-8 * np.maximum(tn2, 1e-30) - 1e-13
        j = int(np.argmax(excess))
        if excess[j] > 0:
            raise RuntimeError(
                f"interface trace not recoverable in the parent space "
                f"(residual {r2[j]:.3e} vs norm {tn2[j]:.3e})")
        return V

    @cached_property
    def schur(self):
        """Per-cell Schur complements onto the parent skeleton."""
        return skeleton_schur(self.ptables, self.pskel)

    def project_exact(self, case):
        """Facet L2 projection of the exact trace onto the slot space."""
        spec = fm.exact_interface(self.disc.form, case, self.slot.name)
        if self.slot.continuity == "facet":
            target = spec
        else:
            _, field, sign = spec
            if self.ikind == "value":
                def target(x, n):
                    return sign * np.asarray(field(x))
            else:
                def target(x, n):
                    v = sign * np.asarray(field(x))
                    return v - np.sum(v * n, axis=1)[:, None] * n
        b = trace_rhs(self.disc.mesh, self.ptables, self.itrace, target)
        return _lusolve(self._mass_lu, b)

    def extension_energy(self, delta):
        """Graph-norm energy of the minimal extension of a slot function."""
        return skeleton_quotient_apply(self.schur, self.pskel,
                                       self.embedding @ delta)

    def error(self, x, case):
        c = self.project_exact(case)
        off = self.disc.slot_offset[self.slot.name]
        delta = c - x[off:off + self.disc.slot_size[self.slot.name]]
        return float(np.sqrt(self.extension_energy(delta)))

    def quotient_gram(self):
        """Sparse interface Gram V^T S V, with V the (real) trace embedding
        into the parent skeleton and S the parent skeleton quotient
        Gram."""
        V = self.embedding
        S = skeleton_quotient_gram(self.schur, self.pskel)
        G = V.T @ (S @ V)
        return (0.5 * (G + G.T)).tocsc()


class _XNormSolver:
    """Blockwise trial-norm Gram: apply and solve.

    Conforming field slots use their family graph norm, broken slots
    the L2 norm, interface slots the sparse quotient Gram; every block
    is sparse and factorized by sparse LU.
    """

    def __init__(self, disc):
        self.disc = disc
        form = disc.form
        grams = [(s, natural_gram(disc._tables[s.name], disc.dofmap(s.name),
                                  include_deriv=s.continuity == "conforming"))
                 for s in form.trial_slots]
        grams += [(s, disc.interface_quotient_gram(s.name))
                  for s in form.interface_slots]
        self.blocks = []
        for s, G in grams:
            sl = slice(disc.slot_offset[s.name],
                       disc.slot_offset[s.name] + disc.slot_size[s.name])
            self.blocks.append((sl, G, splu(G.tocsc())))

    def apply(self, v):
        out = np.zeros_like(v)
        for sl, G, _ in self.blocks:
            out[sl] = G @ v[sl]
        return out

    def solve(self, w):
        out = np.zeros_like(w)
        for sl, _, lu in self.blocks:
            out[sl] = _lusolve(lu, w[sl])
        return out

    def dense(self):
        """Dense Gram over all trial dofs (small meshes only)."""
        n = self.disc.ndof
        X = np.zeros((n, n), dtype=self.disc.form.dtype)
        for sl, G, _ in self.blocks:
            X[sl, sl] = G.toarray()
        return X
