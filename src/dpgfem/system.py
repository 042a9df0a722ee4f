"""Element-level optimal-test algebra, global assembly, solve, estimate.

The discrete system is built cell by cell.  On each cell the broken
test space carries a Gram matrix G, the mixed form a rectangular block
B (test rows, trial columns) and the load a vector l.  The trial-side
normal equations

    A_K = B^H G^{-1} B,    f_K = B^H G^{-1} l

are accumulated into a Hermitian global system.  The same element data
drives the residual error estimator: with eps_K = G^{-1}(l - B x) the
local indicator is eta_K^2 = eps_K^H G eps_K.
"""

from __future__ import annotations

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
    conforming_map,
    facet_map,
    natural_gram,
    skeleton_quotient_apply,
    skeleton_quotient_gram,
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

    Also serves as the assembly context consumed by the form evaluators
    in the formulations module.
    """

    def __init__(self, formulation, mesh, volume_order=None, facet_order=None):
        if mesh.dim != formulation.dim:
            raise ValueError("mesh dimension does not match the formulation")
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

    # -- assembly-context protocol (used by the form evaluators) -------

    def w(self, ci):
        return self._ref_tables.volume_weights(ci)

    def points(self, ci):
        return self._ref_tables.physical_points(ci)

    def vals(self, name, ci):
        return self._tables[name].values(ci)

    def ders(self, name, ci):
        return self._tables[name].derivs(ci)

    def facet(self, name, ci, lf):
        return self._tables[name].facet_values(ci, lf)

    def fw(self, ci, lf):
        return self._ref_tables.facet_weights(ci, lf)

    def normal(self, ci, lf):
        return self.geo.outward_normal(ci, lf)

    def flux_basis(self, name):
        return self._flux_vals[name]

    def skeleton_facets(self, name, ci):
        use = self._maps[name].local_functions
        tab = self._tables[name]
        return [tab.facet_values(ci, lf)[use]
                for lf in range(self.mesh.dim + 1)]

    def test_offset(self, name):
        return self._test_offsets[name]

    def coef(self, key, ci):
        val = np.asarray(self.form.params[key])
        if key == "beta":
            return val if val.ndim == 1 else val[ci]
        return float(val) if val.ndim == 0 else float(val[ci])

    # -- element systems ------------------------------------------------

    def cell_columns(self, ci):
        """Global column dofs and factors of one cell, field slots first."""
        dofs, facs = [], []
        for s in self.form.trial_slots + self.form.interface_slots:
            m = self._maps[s.name]
            dofs.append(self.slot_offset[s.name] + m.cell_dofs[ci])
            facs.append(m.cell_factors[ci])
        return np.concatenate(dofs), np.concatenate(facs)

    def element_system(self, ci, case=None):
        """(G, B, l) on one cell, trial columns in global coefficients."""
        form = self.form
        G = fm.y_gram(form, self, ci)
        B0 = fm.b0_block(form, self, ci)
        Bh = fm.bhat_block(form, self, ci)
        B = np.concatenate([np.asarray(B0, dtype=form.dtype),
                            np.asarray(Bh, dtype=form.dtype)], axis=1)
        _, facs = self.cell_columns(ci)
        B = B * facs[None, :]
        l = fm.load_vector(form, self, ci, case)
        return G, B, l

    # -- global system ---------------------------------------------------

    def assemble(self, case=None):
        """Hermitian condensed system (A, f), cells in ascending order."""
        dtype = self.form.dtype
        rows, cols, vals = [], [], []
        f = np.zeros(self.ndof, dtype=dtype)
        for ci in range(self.mesh.ncells):
            G, B, l = self.element_system(ci, case)
            A_K, f_K = condense(G, B, l)
            idx, _ = self.cell_columns(ci)
            rows.append(np.repeat(idx, len(idx)))
            cols.append(np.tile(idx, len(idx)))
            vals.append(A_K.ravel())
            f[idx] += f_K
        A = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.ndof, self.ndof), dtype=dtype).tocsc()
        return A, f

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
        na = sparse.linalg.onenormest(Aff)
        ni = sparse.linalg.onenormest(op)
        return float(na * ni)

    # -- residual estimator ----------------------------------------------

    def estimate(self, x, case=None):
        """Residual error indicators and the Riesz orthogonality check."""
        eta2 = np.zeros(self.mesh.ncells)
        resid = np.zeros(self.ndof, dtype=self.form.dtype)
        fvec = np.zeros(self.ndof, dtype=self.form.dtype)
        for ci in range(self.mesh.ncells):
            G, B, l = self.element_system(ci, case)
            idx, _ = self.cell_columns(ci)
            r = l - B @ x[idx]
            cho = cho_factor(G, lower=True)
            eps = cho_solve(cho, r)
            eta2[ci] = max(float(np.real(np.vdot(eps, r))), 0.0)
            resid[idx] += B.conj().T @ eps
            fvec[idx] += B.conj().T @ cho_solve(cho, l)
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
        out = {}
        total2 = 0.0
        for s in self.form.trial_slots:
            fname, dname = _exact_names(s.name)
            fex = case.fields[fname]
            dex = case.fields.get(dname)
            conf = s.continuity == "conforming"
            e2 = 0.0
            d2 = 0.0
            tab = self._tables[s.name]
            for ci in range(self.mesh.ncells):
                w = tab.volume_weights(ci)
                pts = tab.physical_points(ci)
                c = self.field_coefficients(x, s.name, ci)
                vals = np.einsum("f,fpc->pc", c, tab.values(ci))
                ex = np.asarray(fex(pts))
                if ex.ndim == 1:
                    ex = ex[:, None]
                diff = vals - ex
                e2 += float(np.real(np.einsum("pc,pc,p->", diff, diff.conj(), w)))
                if conf and dex is not None:
                    dh = np.einsum("f,fpc->pc", c, tab.derivs(ci))
                    de = np.asarray(dex(pts))
                    if de.ndim == 1:
                        de = de[:, None]
                    dd = dh - de
                    d2 += float(np.real(np.einsum("pc,pc,p->", dd, dd.conj(), w)))
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
        """Dense minimum-energy-extension Gram of one interface slot."""
        slot = self.form.slot(slot_name)
        return self._interface_norm(slot).quotient_gram()

    # -- trial-side norm operator and the norm of b ------------------------

    def xnorm_solver(self):
        return _XNormSolver(self)

    def opnorm(self, niter=120, seed=0, tol=1e-11):
        """Largest generalized singular value of b over X x Y.

        Power iteration on G_X^{-1} B^H G_Y^{-1} B with the trial graph
        norms (quotient norms on interfaces) and the broken Y norm.
        """
        xs = self.xnorm_solver()
        chos = []
        blocks = []
        indices = []
        for ci in range(self.mesh.ncells):
            G, B, _ = self.element_system(ci)
            chos.append(cho_factor(G, lower=True))
            blocks.append(B)
            idx, _ = self.cell_columns(ci)
            indices.append(idx)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.ndof)
        if self.form.is_complex:
            v = v + 1j * rng.standard_normal(self.ndof)
        v /= np.sqrt(np.real(np.vdot(v, xs.apply(v))))
        val = 0.0
        for _ in range(niter):
            # y-residual application: w = B^H G^{-1} B v, cellwise
            w = np.zeros(self.ndof, dtype=complex)
            num = 0.0
            for cho, B, idx in zip(chos, blocks, indices):
                r = B @ v[idx]
                e = cho_solve(cho, r)
                num += float(np.real(np.vdot(e, r)))
                w[idx] += B.conj().T @ e
            if not self.form.is_complex:
                w = np.real(w)
            new = np.sqrt(num)
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


def condense(G, B, l=None):
    """Element normal equations: A = B^H G^{-1} B, f = B^H G^{-1} l."""
    cho = cho_factor(G, lower=True)
    X = cho_solve(cho, B)
    A = B.conj().T @ X
    A = 0.5 * (A + A.conj().T)
    if l is None:
        return A
    f = X.conj().T @ l
    return A, f


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
    """Projection and quotient-norm machinery for one interface slot."""

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
        self._mi = None
        self._mq = None
        self._cx = None

    def _factorized(self):
        mesh, tab = self.disc.mesh, self.ptables
        if self._mi is None:
            self._mi_mat = trace_mass(mesh, tab, self.itrace).tocsc()
            self._mq_mat = trace_mass(mesh, tab, self.ptrace).tocsc()
            self._mi = splu(self._mi_mat)
            self._mq = splu(self._mq_mat)
            self._cx = trace_mass(mesh, tab, self.ptrace, self.itrace)
        return self._mi, self._mq, self._cx

    def project_exact(self, case):
        """Facet L2 projection of the exact trace onto the slot space."""
        mi, _, _ = self._factorized()
        spec = fm.exact_interface(self.disc.form, case, self.slot.name)
        mesh = self.disc.mesh
        if self.slot.continuity == "facet":
            target = lambda fid, ci, lf, x, n: spec(x, np.broadcast_to(
                n, x.shape))
        else:
            _, field, sign = spec
            if self.ikind == "value":
                def target(fid, ci, lf, x, n):
                    return sign * np.asarray(field(x))[:, None]
            else:
                def target(fid, ci, lf, x, n):
                    v = sign * np.asarray(field(x))
                    vn = v @ n
                    return v - vn[:, None] * n[None, :]
        b, _ = trace_rhs(mesh, self.ptables, self.itrace, target)
        return _lusolve(mi, b)

    def extension_energy(self, delta):
        """Graph-norm energy of the minimal extension of a slot function."""
        _, mq, cx = self._factorized()
        rhs = cx @ delta
        v = _lusolve(mq, rhs)
        # feasibility: the parent trace must reproduce delta's trace,
        # which holds exactly by degree nesting
        tn2 = float(np.real(np.vdot(delta, self._mi_mat @ delta)))
        r2 = (float(np.real(np.vdot(v, self._mq_mat @ v)))
              - 2.0 * float(np.real(np.vdot(v, rhs))) + tn2)
        if r2 > 1e-8 * max(tn2, 1e-30) + 1e-13:
            raise RuntimeError(
                f"interface trace not recoverable in the parent space "
                f"(residual {r2:.3e} vs norm {tn2:.3e})")
        return skeleton_quotient_apply(self.ptables, self.pskel, v)

    def error(self, x, case):
        c = self.project_exact(case)
        off = self.disc.slot_offset[self.slot.name]
        delta = c - x[off:off + self.disc.slot_size[self.slot.name]]
        return float(np.sqrt(self.extension_energy(delta)))

    def quotient_gram(self):
        """Dense interface Gram V^H S V with V the trace-matching
        embedding into the parent skeleton."""
        _, mq, cx = self._factorized()
        V = mq.solve(np.asarray(cx.todense()))
        S = skeleton_quotient_gram(self.ptables, self.pskel)
        G = V.conj().T @ (S @ V)
        return 0.5 * (G + G.conj().T)


class _XNormSolver:
    """Blockwise trial-norm Gram: apply and solve.

    Conforming field slots use their family graph norm, broken slots
    the L2 norm, interface slots the dense quotient Gram.
    """

    def __init__(self, disc):
        self.disc = disc
        self.blocks = []
        for s in disc.form.trial_slots:
            tab = disc._tables[s.name]
            dmap = disc.dofmap(s.name)
            G = natural_gram(tab, dmap,
                             include_deriv=s.continuity == "conforming")
            sl = slice(disc.slot_offset[s.name],
                       disc.slot_offset[s.name] + disc.slot_size[s.name])
            self.blocks.append((sl, G, splu(G.tocsc()), True))
        for s in disc.form.interface_slots:
            G = disc.interface_quotient_gram(s.name)
            sl = slice(disc.slot_offset[s.name],
                       disc.slot_offset[s.name] + disc.slot_size[s.name])
            self.blocks.append((sl, G, cho_factor(G, lower=True), False))

    def apply(self, v):
        out = np.zeros_like(v, dtype=complex)
        for sl, G, _, is_sparse in self.blocks:
            out[sl] = G @ v[sl]
        return out if np.iscomplexobj(v) else np.real(out)

    def solve(self, w):
        out = np.zeros_like(w, dtype=complex)
        for sl, _, fac, is_sparse in self.blocks:
            if is_sparse:
                if np.iscomplexobj(w):
                    out[sl] = fac.solve(np.real(w[sl])) + 1j * fac.solve(
                        np.imag(w[sl]))
                else:
                    out[sl] = fac.solve(w[sl])
            else:
                out[sl] = cho_solve(fac, w[sl])
        return out if np.iscomplexobj(w) else np.real(out)

    def dense(self):
        """Dense Gram over all trial dofs (small meshes only)."""
        n = self.disc.ndof
        X = np.zeros((n, n), dtype=self.disc.form.dtype)
        for sl, G, _, is_sparse in self.blocks:
            X[sl, sl] = np.asarray(G.todense()) if sparse.issparse(G) else G
        return X
