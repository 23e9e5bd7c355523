//! The fused, dimension-split right-hand-side kernel (Algorithm 1 + §5.4).
//!
//! One pass per coordinate direction accumulates the flux divergence into the
//! RHS arrays. All reconstructed states, primitive conversions, velocity
//! gradients, and interface fluxes are *thread-local temporaries* — nothing
//! is materialized to memory, which is the paper's key memory optimization
//! (25× footprint reduction vs. a staged WENO implementation).
//!
//! Two implementations share one interface-flux core (`lf_flux`)
//! and are bitwise identical:
//!
//! * [`KernelPath::Reference`] — the straight-line per-interface kernel:
//!   every interface gathers its 6-cell window with per-cell indexed loads.
//! * [`KernelPath::Fused`] (default) — row-buffered SoA sweeps: each cell row
//!   is unpacked once into contiguous compute-precision buffers, the linear
//!   reconstruction runs as unit-stride row passes the autovectorizer can
//!   batch, and the remaining per-interface work reads cache-hot buffers.
//!   Since reconstruction and flux arithmetic per interface is unchanged (the
//!   same expressions over the same values), results match the reference
//!   bit for bit.
//!
//! Parallel structure: the RHS arrays are split into contiguous slabs along
//! the outermost active axis (near-equal layer counts per chunk, remainder
//! spread one layer per leading chunk — see [`layer_chunks`]), and each task
//! computes every flux its slab needs, recomputing interface fluxes at slab
//! boundaries instead of sharing them. Per-cell arithmetic order is fixed, so
//! results are bitwise independent of the thread count — this is what the
//! decomposed-vs-single-rank equality tests rely on.

use crate::config::{KernelPath, ReconOrder};
use crate::eos::{cons_to_prim, inviscid_flux, max_wave_speed, Cons, Prim, NV};
use crate::recon::{recon1, recon3, recon5, recon_rows};
use crate::state::{Fields, State};
use crate::CONVERT_BLOCK;
use igr_grid::{Axis, Domain, Field, GridShape};
use igr_prec::{Real, Storage};
use rayon::prelude::*;
use std::ops::Range;

/// Everything the flux kernel needs, borrowed immutably and shared across
/// tasks.
pub struct FluxParams<'a, R: Real, S: Storage<R>> {
    pub q: &'a State<R, S>,
    /// Entropic pressure field; read only when `use_sigma`.
    pub sigma: &'a Field<R, S>,
    pub gamma: R,
    pub mu: R,
    pub zeta: R,
    pub viscous: bool,
    pub use_sigma: bool,
    pub order: ReconOrder,
    /// Which sweep implementation runs (bitwise-equal paths; see module doc).
    pub kernel: KernelPath,
    pub inv_dx: [R; 3],
    pub inv2dx: [R; 3],
    pub strides: [usize; 3],
    pub shape: GridShape,
}

impl<'a, R: Real, S: Storage<R>> FluxParams<'a, R, S> {
    pub fn new(
        q: &'a State<R, S>,
        sigma: &'a Field<R, S>,
        domain: &Domain,
        gamma: f64,
        mu: f64,
        zeta: f64,
        order: ReconOrder,
        use_sigma: bool,
    ) -> Self {
        let shape = q.shape();
        let dx = [domain.dx(Axis::X), domain.dx(Axis::Y), domain.dx(Axis::Z)];
        FluxParams {
            q,
            sigma,
            gamma: R::from_f64(gamma),
            mu: R::from_f64(mu),
            zeta: R::from_f64(zeta),
            viscous: mu != 0.0 || zeta != 0.0,
            use_sigma,
            order,
            kernel: KernelPath::Fused,
            inv_dx: [
                R::from_f64(1.0 / dx[0]),
                R::from_f64(1.0 / dx[1]),
                R::from_f64(1.0 / dx[2]),
            ],
            inv2dx: [
                R::from_f64(0.5 / dx[0]),
                R::from_f64(0.5 / dx[1]),
                R::from_f64(0.5 / dx[2]),
            ],
            strides: [
                shape.stride(Axis::X),
                shape.stride(Axis::Y),
                shape.stride(Axis::Z),
            ],
            shape,
        }
    }

    /// Select the sweep implementation (default: [`KernelPath::Fused`]).
    pub fn with_kernel(mut self, kernel: KernelPath) -> Self {
        self.kernel = kernel;
        self
    }

    /// Cell-centred velocity at a linear index.
    #[inline(always)]
    fn vel_at(&self, lin: usize) -> [R; 3] {
        let inv_rho = R::ONE / self.q.rho.at_lin(lin);
        [
            self.q.mx.at_lin(lin) * inv_rho,
            self.q.my.at_lin(lin) * inv_rho,
            self.q.mz.at_lin(lin) * inv_rho,
        ]
    }

    /// The interface-flux core shared by both kernel paths: Lax–Friedrichs on
    /// already-reconstructed states (eqs. 6–8; plus the viscous flux of eq. 5
    /// when active), including the donor-cell positivity fallback.
    ///
    /// `donor_l`/`donor_r` are the conservative states of the two cells
    /// adjacent to the interface (`w[v][2]`, `w[v][3]` of the 6-cell window),
    /// and `sig_dl`/`sig_dr` the matching Σ values — used only when the
    /// reconstruction overshoots into an inadmissible state.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn lf_flux(
        &self,
        d: usize,
        lin_c: usize,
        mut ql: Cons<R>,
        mut qr: Cons<R>,
        mut sl: R,
        mut sr: R,
        donor_l: &Cons<R>,
        donor_r: &Cons<R>,
        sig_dl: R,
        sig_dr: R,
    ) -> Cons<R> {
        let mut prl = cons_to_prim(&ql, self.gamma);
        let mut prr = cons_to_prim(&qr, self.gamma);

        // Positivity safeguard: a linear reconstruction can overshoot into
        // negative density/pressure at under-resolved fronts (e.g. the sharp
        // edge of a jet inflow). Fall back to the donor-cell states for this
        // interface; IGR smooths the front within a few cells so this path is
        // cold.
        if !(prl.rho > R::ZERO && prr.rho > R::ZERO && prl.p > R::ZERO && prr.p > R::ZERO) {
            ql = *donor_l;
            qr = *donor_r;
            prl = cons_to_prim(&ql, self.gamma);
            prr = cons_to_prim(&qr, self.gamma);
            if self.use_sigma {
                sl = sig_dl;
                sr = sig_dr;
            }
        }

        let lam =
            max_wave_speed(d, &prl, sl, self.gamma).max(max_wave_speed(d, &prr, sr, self.gamma));
        let fl = inviscid_flux(d, &ql, &prl, prl.p + sl);
        let fr = inviscid_flux(d, &qr, &prr, prr.p + sr);

        let mut f = [R::ZERO; NV];
        for v in 0..NV {
            f[v] = R::HALF * (fl[v] + fr[v]) - R::HALF * lam * (qr[v] - ql[v]);
        }

        if self.viscous {
            self.subtract_viscous_flux(d, lin_c, &prl, &prr, &mut f);
        }
        f
    }

    /// Viscous contribution at the interface: 2nd-order central velocity
    /// gradients (eq. 5's stress tensor), subtracted from the momentum and
    /// energy fluxes.
    #[inline(always)]
    fn subtract_viscous_flux(
        &self,
        d: usize,
        lin_c: usize,
        prl: &Prim<R>,
        prr: &Prim<R>,
        f: &mut Cons<R>,
    ) {
        let st = self.strides[d];
        let lin_p = lin_c + st;
        let u_c = self.vel_at(lin_c);
        let u_p = self.vel_at(lin_p);

        // grad[a][b] = d u_a / d x_b at the interface.
        let mut grad = [[R::ZERO; 3]; 3];
        for a in 0..3 {
            grad[a][d] = (u_p[a] - u_c[a]) * self.inv_dx[d];
        }
        for (e, axis) in Axis::ALL.iter().enumerate() {
            if e == d || !self.shape.is_active(*axis) {
                continue;
            }
            let se = self.strides[e];
            let up_c = self.vel_at(lin_c + se);
            let dn_c = self.vel_at(lin_c - se);
            let up_p = self.vel_at(lin_p + se);
            let dn_p = self.vel_at(lin_p - se);
            for a in 0..3 {
                let g_c = (up_c[a] - dn_c[a]) * self.inv2dx[e];
                let g_p = (up_p[a] - dn_p[a]) * self.inv2dx[e];
                grad[a][e] = R::HALF * (g_c + g_p);
            }
        }

        let div = grad[0][0] + grad[1][1] + grad[2][2];
        let bulk = (self.zeta - R::TWO * self.mu / R::from_f64(3.0)) * div;
        let u_avg = [
            R::HALF * (prl.vel[0] + prr.vel[0]),
            R::HALF * (prl.vel[1] + prr.vel[1]),
            R::HALF * (prl.vel[2] + prr.vel[2]),
        ];
        for a in 0..3 {
            let mut tau_ad = self.mu * (grad[a][d] + grad[d][a]);
            if a == d {
                tau_ad += bulk;
            }
            f[1 + a] -= tau_ad;
            f[4] -= u_avg[a] * tau_ad;
        }
    }
}

impl<R: Real, S: Storage<R>> FaceFlux for FluxParams<'_, R, S> {
    type Flux = Cons<R>;

    /// Reference-path numerical flux through the interface between cell
    /// `lin_c` and its successor along axis `d`: gather the 6-cell window
    /// with indexed loads, reconstruct, and hand off to `lf_flux`.
    #[inline(always)]
    fn face_flux(&self, d: usize, lin_c: usize) -> Cons<R> {
        let st = self.strides[d];
        let base = lin_c - 2 * st; // cell c-2; in-bounds by ghost-width construction

        // Load the 6-cell conservative windows (Algorithm 1's q <- -2..3).
        let mut w = [[R::ZERO; 6]; NV];
        for (o, wo) in (0..6).zip(0..6) {
            let lin = base + o * st;
            let qq = self.q.cons_at_lin(lin);
            for v in 0..NV {
                w[v][wo] = qq[v];
            }
        }

        // Reconstruct left/right conservative states at the interface.
        let mut ql = [R::ZERO; NV];
        let mut qr = [R::ZERO; NV];
        for v in 0..NV {
            let (l, r) = match self.order {
                ReconOrder::First => recon1(&w[v]),
                ReconOrder::Third => recon3(&w[v]),
                ReconOrder::Fifth => recon5(&w[v]),
            };
            ql[v] = l;
            qr[v] = r;
        }

        // Entropic pressure at the interface: same reconstruction (the
        // Σ(-2:3) lines of Algorithm 1).
        let (mut sl, mut sr) = (R::ZERO, R::ZERO);
        let mut sw = [R::ZERO; 6];
        if self.use_sigma {
            for (o, swo) in (0..6).zip(0..6) {
                sw[swo] = self.sigma.at_lin(base + o * st);
            }
            let (l, r) = match self.order {
                ReconOrder::First => recon1(&sw),
                ReconOrder::Third => recon3(&sw),
                ReconOrder::Fifth => recon5(&sw),
            };
            sl = l;
            sr = r;
        }

        let donor_l: Cons<R> = std::array::from_fn(|v| w[v][2]);
        let donor_r: Cons<R> = std::array::from_fn(|v| w[v][3]);
        self.lf_flux(d, lin_c, ql, qr, sl, sr, &donor_l, &donor_r, sw[2], sw[3])
    }
}

/// Accumulate `−∇·F` into `rhs` for all active directions.
///
/// `rhs` must be zeroed (or hold contributions to be added to); ghosts of `q`
/// and `sigma` must be filled.
pub fn accumulate_fluxes<R: Real, S: Storage<R>>(p: &FluxParams<'_, R, S>, rhs: &mut State<R, S>) {
    par_over_slabs(rhs, |chunks, off, j_range, k_range| {
        let mut scratch = Scratch::new(p.shape, p.kernel);
        process_block(p, chunks, off, j_range, k_range, &mut scratch);
    });
}

/// Run `block(chunks, off, j_range, k_range)` once per balanced slab of the
/// outermost active axis, in parallel: `chunks` are the slab's pieces of the
/// packed arrays of `rhs` (the first element at linear index `off`), and
/// `j_range × k_range` are the interior cell rows the slab owns. z-layers on
/// 3-D grids ([`layer_chunks`]), y-rows on 2-D grids, one serial block in 1-D.
pub fn par_over_slabs<R, S, const NF: usize, Q>(
    rhs: &mut Q,
    block: impl Fn([&mut [S::Packed]; NF], usize, Range<i32>, Range<i32>) + Sync,
) where
    R: Real,
    S: Storage<R>,
    Q: Fields<R, S, NF>,
{
    let shape = rhs.shape();
    let axis = if shape.is_active(Axis::Z) {
        Axis::Z
    } else if shape.is_active(Axis::Y) {
        Axis::Y
    } else {
        // 1-D problem: single serial block.
        block(rhs.split_mut_packed(), 0, 0..1, 0..1);
        return;
    };
    let stride = shape.stride(axis);
    let counts = layer_chunks(shape.total(axis), rayon::current_num_threads());
    let bounds = prefix_sums(&counts);
    let sizes: Vec<usize> = counts.iter().map(|&c| c * stride).collect();
    let g = shape.ghosts(axis) as i32;
    let n = shape.extent(axis) as i32;
    par_over_uneven_chunks(rhs, &sizes, |ci, chunks| {
        let l0 = bounds[ci] as i32;
        let (c0, c1) = ((l0 - g).max(0), (bounds[ci + 1] as i32 - g).min(n));
        if c0 >= c1 {
            return;
        }
        let _sp = igr_obs::span!("flux.slab");
        let off = l0 as usize * stride;
        match axis {
            Axis::Z => block(chunks, off, 0..shape.ny as i32, c0..c1),
            _ => block(chunks, off, c0..c1, 0..1),
        }
    });
}

/// Near-equal layer counts for parallel slab decomposition: `n_layers` split
/// into at most `4 * threads` chunks, with the division remainder spread one
/// extra layer per *leading* chunk (instead of a ragged, near-empty or
/// double-sized final chunk). Sums to `n_layers` for every input.
pub fn layer_chunks(n_layers: usize, threads: usize) -> Vec<usize> {
    let target = (4 * threads).max(1).min(n_layers.max(1));
    let base = n_layers / target;
    let rem = n_layers % target;
    (0..target).map(|c| base + usize::from(c < rem)).collect()
}

/// `[0, c0, c0+c1, ...]` — chunk start offsets from chunk sizes.
pub fn prefix_sums(counts: &[usize]) -> Vec<usize> {
    let mut bounds = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0;
    bounds.push(0);
    for &c in counts {
        acc += c;
        bounds.push(acc);
    }
    bounds
}

/// `NF` equal-length parallel iterators walked in lockstep — a `zip` over an
/// array, yielding one item of each per step. The granularity hint is the
/// largest part's, so per-field chunk iterators count the cells of one
/// field, exactly as a chain of `zip`s does.
struct ZipN<I, const NF: usize>(Vec<I>);

impl<I: ParallelIterator, const NF: usize> ParallelIterator for ZipN<I, NF> {
    type Item = [I::Item; NF];

    fn par_len(&self) -> usize {
        self.0.iter().map(I::par_len).min().unwrap_or(0)
    }

    fn elements_hint(&self) -> usize {
        self.0.iter().map(I::elements_hint).max().unwrap_or(0)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.0.into_iter().map(|it| it.split_at(mid)).unzip();
        (ZipN(a), ZipN(b))
    }

    fn next_item(&mut self) -> Option<Self::Item> {
        let items: Vec<I::Item> = self.0.iter_mut().map(I::next_item).collect::<Option<_>>()?;
        items.try_into().ok()
    }
}

/// Split the packed arrays of `rhs` into aligned `csize`-cell chunks and run
/// `f` on each set in parallel. Shared by the IGR kernels of every equation
/// set and the staged baseline pipeline in `igr-baseline`.
pub fn par_over_chunks<R, S, const NF: usize, Q>(
    rhs: &mut Q,
    csize: usize,
    f: impl Fn(usize, [&mut [S::Packed]; NF]) + Sync,
) where
    R: Real,
    S: Storage<R>,
    Q: Fields<R, S, NF>,
{
    let chunks = rhs.split_mut_packed().map(|a| a.par_chunks_mut(csize));
    ZipN::<_, NF>(chunks.into())
        .enumerate()
        .for_each(|(ci, c)| f(ci, c));
}

/// [`par_over_chunks`] with caller-specified chunk sizes (the balanced layer
/// decomposition of [`layer_chunks`]).
pub fn par_over_uneven_chunks<R, S, const NF: usize, Q>(
    rhs: &mut Q,
    sizes: &[usize],
    f: impl Fn(usize, [&mut [S::Packed]; NF]) + Sync,
) where
    R: Real,
    S: Storage<R>,
    Q: Fields<R, S, NF>,
{
    // The span covers the full fork-join, so (pool.dispatch − Σ flux.slab)
    // is the scheduling + join overhead the scaling work needs to see.
    let _sp = igr_obs::span!("pool.dispatch");
    // Race-check builds: the chunk iterators record every handed-out range
    // (all variable arrays share one scope — identical offsets under the
    // same piece id merge; a bookkeeping slip in `sizes` shows up as a
    // cross-piece overlap when the fork-join completes).
    #[cfg(igr_race_check)]
    rayon::shadow::scope_begin("rhs.uneven_chunks");
    let chunks = rhs
        .split_mut_packed()
        .map(|a| a.par_uneven_chunks_mut(sizes.to_vec()));
    ZipN::<_, NF>(chunks.into())
        .enumerate()
        .for_each(|(ci, c)| f(ci, c));
    #[cfg(igr_race_check)]
    rayon::shadow::scope_end();
}

/// The interface flux a reference sweep differences, per equation set.
///
/// A trait rather than a closure so the per-interface kernel is inlined into
/// the row walks below (the compiler declines to inline a closure that big).
pub trait FaceFlux {
    /// Flux record of one interface.
    type Flux;
    /// Flux through the face between cell `lin` and its successor along
    /// axis `d`.
    fn face_flux(&self, d: usize, lin: usize) -> Self::Flux;
}

/// The x-row skeleton of the reference sweeps: for every x-row of
/// `j_range × k_range`, compute the row's `nx + 1` face fluxes once and call
/// `apply(row, lo, hi)`, where `row` is the linear index of the row's first
/// cell and `lo[i]`/`hi[i]` are the fluxes through cell `i`'s low and high
/// x-faces.
#[inline(always)]
pub fn walk_x_rows<P: FaceFlux>(
    p: &P,
    shape: GridShape,
    j_range: Range<i32>,
    k_range: Range<i32>,
    mut apply: impl FnMut(usize, &[P::Flux], &[P::Flux]),
) {
    let nx = shape.nx;
    let mut faces = Vec::with_capacity(nx + 1);
    for k in k_range {
        for j in j_range.clone() {
            let row = shape.idx(0, j, k);
            faces.clear();
            faces.extend((row - 1..row + nx).map(|lin| p.face_flux(0, lin)));
            apply(row, &faces[..nx], &faces[1..]);
        }
    }
}

/// The y/z skeleton of the reference sweeps: one row of interface fluxes
/// along `axis` at a time, buffered, differenced against the previous row
/// through `apply(row, lo, hi)` as in [`walk_x_rows`]. Y walks `k` outside
/// `j`, Z walks `j` outside `k`.
#[inline(always)]
pub fn walk_transverse_rows<P: FaceFlux>(
    p: &P,
    shape: GridShape,
    axis: Axis,
    j_range: Range<i32>,
    k_range: Range<i32>,
    mut apply: impl FnMut(usize, &[P::Flux], &[P::Flux]),
) {
    let (d, nx) = (axis.dim(), shape.nx);
    let (outer, inner) = match axis {
        Axis::Y => (k_range, j_range),
        Axis::Z => (j_range, k_range),
        Axis::X => unreachable!("x rows use walk_x_rows"),
    };
    let row_start = |t: i32, c: i32| match axis {
        Axis::Y => shape.idx(0, c, t),
        _ => shape.idx(0, t, c),
    };
    let (mut lo, mut hi) = (Vec::with_capacity(nx), Vec::with_capacity(nx));
    for t in outer {
        let row0 = row_start(t, inner.start - 1);
        lo.clear();
        lo.extend((row0..row0 + nx).map(|lin| p.face_flux(d, lin)));
        for c in inner.clone() {
            let row = row_start(t, c);
            hi.clear();
            hi.extend((row..row + nx).map(|lin| p.face_flux(d, lin)));
            apply(row, &lo, &hi);
            std::mem::swap(&mut lo, &mut hi);
        }
    }
}

/// One unpacked cell row: the five conservative variables plus Σ in compute
/// precision, contiguous over the x index (the SoA unit of the fused sweeps).
struct RowBuf<R: Real> {
    q: [Vec<R>; NV],
    s: Vec<R>,
}

impl<R: Real> RowBuf<R> {
    fn new(len: usize) -> Self {
        RowBuf {
            q: std::array::from_fn(|_| vec![R::ZERO; len]),
            s: vec![R::ZERO; len],
        }
    }
}

/// Primitive-state and wave-speed rows of one interface row (fused path).
struct PrimRows<R: Real> {
    /// Left-state velocity components.
    ul: [Vec<R>; 3],
    /// Left-state pressure.
    pl: Vec<R>,
    /// Right-state velocity components.
    ur: [Vec<R>; 3],
    /// Right-state pressure.
    pr: Vec<R>,
    /// Lax–Friedrichs dissipation speed per interface.
    lam: Vec<R>,
    /// Interfaces needing the donor-cell positivity fallback (cold).
    bad: Vec<usize>,
}

impl<R: Real> PrimRows<R> {
    fn new(len: usize) -> Self {
        PrimRows {
            ul: std::array::from_fn(|_| vec![R::ZERO; len]),
            pl: vec![R::ZERO; len],
            ur: std::array::from_fn(|_| vec![R::ZERO; len]),
            pr: vec![R::ZERO; len],
            lam: vec![R::ZERO; len],
            bad: Vec::new(),
        }
    }
}

/// Per-task buffers — the thread-local temporaries of §5.4.
struct Scratch<R: Real> {
    /// X sweep: one ghost-padded row (`nx + 2 ng` cells).
    xw: RowBuf<R>,
    /// Y/Z sweeps: rolling 6-row stencil window (`nx` cells each).
    win: Vec<RowBuf<R>>,
    /// Reconstructed left/right interface rows (`nx + 1` interfaces max).
    ql: [Vec<R>; NV],
    qr: [Vec<R>; NV],
    sl: Vec<R>,
    sr: Vec<R>,
    /// Interface primitive/wave-speed rows.
    prim: PrimRows<R>,
    /// SoA flux rows (fused path): `fa` doubles as the X-sweep row and the
    /// transverse "lo" row; `fb` is the transverse "hi" row.
    fa: [Vec<R>; NV],
    fb: [Vec<R>; NV],
}

impl<R: Real> Scratch<R> {
    /// Allocate only the selected path's buffers — the two sweep families
    /// never touch each other's scratch, and a task allocates a Scratch per
    /// chunk per RHS evaluation.
    fn new(shape: GridShape, kernel: KernelPath) -> Self {
        let nx = shape.nx;
        let nxe = nx + 2 * shape.ghosts(Axis::X);
        let fused = kernel == KernelPath::Fused;
        let row = |len: usize| -> Vec<R> {
            if fused {
                vec![R::ZERO; len]
            } else {
                Vec::new()
            }
        };
        Scratch {
            xw: RowBuf::new(if fused { nxe } else { 0 }),
            win: (0..6)
                .map(|_| RowBuf::new(if fused { nx } else { 0 }))
                .collect(),
            ql: std::array::from_fn(|_| row(nx + 1)),
            qr: std::array::from_fn(|_| row(nx + 1)),
            sl: row(nx + 1),
            sr: row(nx + 1),
            prim: PrimRows::new(if fused { nx + 1 } else { 0 }),
            fa: std::array::from_fn(|_| row(nx + 1)),
            fb: std::array::from_fn(|_| row(nx + 1)),
        }
    }
}

/// Unpack `len` cells starting at linear index `start` into `buf` (all five
/// conservative rows, plus Σ when in use).
fn load_row<R: Real, S: Storage<R>>(
    p: &FluxParams<'_, R, S>,
    start: usize,
    len: usize,
    buf: &mut RowBuf<R>,
) {
    for (v, field) in p.q.fields().into_iter().enumerate() {
        S::unpack_slice(&field.packed()[start..start + len], &mut buf.q[v][..len]);
    }
    if p.use_sigma {
        S::unpack_slice(&p.sigma.packed()[start..start + len], &mut buf.s[..len]);
    }
}

/// `cells[i] += (lo[i] - hi[i]) * inv_dx`: one flux-difference row of the
/// fused sweeps, with the cells unpacked and packed a block at a time.
fn accumulate_row<R: Real, S: Storage<R>>(cells: &mut [S::Packed], lo: &[R], hi: &[R], inv_dx: R) {
    let mut buf = [R::ZERO; CONVERT_BLOCK];
    let blocks = cells.chunks_mut(CONVERT_BLOCK);
    for ((c, lo), hi) in blocks
        .zip(lo.chunks(CONVERT_BLOCK))
        .zip(hi.chunks(CONVERT_BLOCK))
    {
        S::update_slice(c, &mut buf, |acc| {
            for ((a, &l), &h) in acc.iter_mut().zip(lo).zip(hi) {
                *a += (l - h) * inv_dx;
            }
        });
    }
}

/// Run all active sweeps for one block: interior rows `j_range x k_range`,
/// writing into `chunks` whose first element corresponds to linear index
/// `off`.
fn process_block<R: Real, S: Storage<R>>(
    p: &FluxParams<'_, R, S>,
    mut chunks: [&mut [S::Packed]; NV],
    off: usize,
    j_range: Range<i32>,
    k_range: Range<i32>,
    scratch: &mut Scratch<R>,
) {
    let shape = p.shape;
    let fused = p.kernel == KernelPath::Fused;

    if shape.is_active(Axis::X) {
        if fused {
            sweep_x_fused(
                p,
                &mut chunks,
                off,
                j_range.clone(),
                k_range.clone(),
                scratch,
            );
        } else {
            sweep_x_ref(p, &mut chunks, off, j_range.clone(), k_range.clone());
        }
    }
    if shape.is_active(Axis::Y) {
        if fused {
            sweep_yz_fused(
                p,
                &mut chunks,
                off,
                Axis::Y,
                j_range.clone(),
                k_range.clone(),
                scratch,
            );
        } else {
            sweep_yz_ref(
                p,
                &mut chunks,
                off,
                Axis::Y,
                j_range.clone(),
                k_range.clone(),
            );
        }
    }
    if shape.is_active(Axis::Z) {
        if fused {
            sweep_yz_fused(p, &mut chunks, off, Axis::Z, j_range, k_range, scratch);
        } else {
            sweep_yz_ref(p, &mut chunks, off, Axis::Z, j_range, k_range);
        }
    }
}

// --- reference sweeps ----------------------------------------------------

/// `chunks[v][loc + i] += (lo[i][v] - hi[i][v]) * inv_dx` along one cell
/// row: the reference path's flux difference.
fn apply_ref<R: Real, S: Storage<R>>(
    chunks: &mut [&mut [S::Packed]; NV],
    loc: usize,
    lo: &[Cons<R>],
    hi: &[Cons<R>],
    inv_dx: R,
) {
    for (i, (f_lo, f_hi)) in lo.iter().zip(hi).enumerate() {
        for v in 0..NV {
            let acc = S::unpack(chunks[v][loc + i]) + (f_lo[v] - f_hi[v]) * inv_dx;
            chunks[v][loc + i] = S::pack(acc);
        }
    }
}

/// X sweep: one row of x-face fluxes at a time, each face computed once.
fn sweep_x_ref<R: Real, S: Storage<R>>(
    p: &FluxParams<'_, R, S>,
    chunks: &mut [&mut [S::Packed]; NV],
    off: usize,
    j_range: Range<i32>,
    k_range: Range<i32>,
) {
    let inv_dx = p.inv_dx[0];
    walk_x_rows(p, p.shape, j_range, k_range, |row, lo, hi| {
        apply_ref::<R, S>(chunks, row - off, lo, hi, inv_dx)
    });
}

/// Y/Z sweep: compute one row of interface fluxes at a time and difference
/// consecutive rows (windows gathered per interface with indexed loads).
fn sweep_yz_ref<R: Real, S: Storage<R>>(
    p: &FluxParams<'_, R, S>,
    chunks: &mut [&mut [S::Packed]; NV],
    off: usize,
    axis: Axis,
    j_range: Range<i32>,
    k_range: Range<i32>,
) {
    let inv_dx = p.inv_dx[axis.dim()];
    walk_transverse_rows(p, p.shape, axis, j_range, k_range, |row, lo, hi| {
        apply_ref::<R, S>(chunks, row - off, lo, hi, inv_dx)
    });
}

// --- fused (row-buffered SoA) sweeps -------------------------------------
//
// The fused path mirrors the reference's per-interface expressions exactly —
// same operations, same order, on the same values — restructured as
// unit-stride row passes (reconstruction, cons→prim, wave speeds, fluxes)
// that the autovectorizer can batch across interfaces. The tests
// `fused_kernel_matches_reference_*` and the repo-level determinism
// regression test pin the bitwise equality.

/// Compute one SoA row of interface fluxes from already-reconstructed
/// left/right rows. `row_c` is the linear index of the cell on the low side
/// of interface 0 (for the viscous stencil); `donors(t)` returns the two
/// adjacent-cell states and Σ values for the cold positivity fallback.
#[allow(clippy::too_many_arguments)]
fn flux_row_core<R: Real, S: Storage<R>>(
    p: &FluxParams<'_, R, S>,
    d: usize,
    row_c: usize,
    n: usize,
    ql: &mut [Vec<R>; NV],
    qr: &mut [Vec<R>; NV],
    sl: &mut [R],
    sr: &mut [R],
    prim: &mut PrimRows<R>,
    donors: impl Fn(usize) -> ([Cons<R>; 2], [R; 2]),
    out: &mut [Vec<R>; NV],
) {
    let gamma = p.gamma;
    // cons→prim row passes (both sides). Expressions mirror `cons_to_prim`.
    for (qs, us, ps) in [
        (&*ql, &mut prim.ul, &mut prim.pl),
        (&*qr, &mut prim.ur, &mut prim.pr),
    ] {
        let [q0, q1, q2, q3, q4] = qs.each_ref().map(|v| &v[..n]);
        let [u0, u1, u2] = us.each_mut().map(|v| &mut v[..n]);
        let pp = &mut ps[..n];
        for i in 0..n {
            let inv_rho = R::ONE / q0[i];
            let u = q1[i] * inv_rho;
            let v = q2[i] * inv_rho;
            let w = q3[i] * inv_rho;
            let ke = R::HALF * q0[i] * (u * u + v * v + w * w);
            u0[i] = u;
            u1[i] = v;
            u2[i] = w;
            pp[i] = (gamma - R::ONE) * (q4[i] - ke);
        }
    }

    // Positivity scan: collect the (cold) interfaces whose reconstruction
    // overshot, and redo them from the donor-cell states — the same fallback
    // as the reference's `lf_flux`.
    prim.bad.clear();
    for i in 0..n {
        if !(ql[0][i] > R::ZERO
            && qr[0][i] > R::ZERO
            && prim.pl[i] > R::ZERO
            && prim.pr[i] > R::ZERO)
        {
            prim.bad.push(i);
        }
    }
    for bi in 0..prim.bad.len() {
        let i = prim.bad[bi];
        let ([donor_l, donor_r], [sig_dl, sig_dr]) = donors(i);
        for v in 0..NV {
            ql[v][i] = donor_l[v];
            qr[v][i] = donor_r[v];
        }
        let prl = cons_to_prim(&donor_l, gamma);
        let prr = cons_to_prim(&donor_r, gamma);
        for a in 0..3 {
            prim.ul[a][i] = prl.vel[a];
            prim.ur[a][i] = prr.vel[a];
        }
        prim.pl[i] = prl.p;
        prim.pr[i] = prr.p;
        if p.use_sigma {
            sl[i] = sig_dl;
            sr[i] = sig_dr;
        }
    }

    // Wave-speed row (mirrors `max_wave_speed` on both sides).
    let tiny = R::from_f64(1e-300);
    {
        let (unl, unr) = (&prim.ul[d][..n], &prim.ur[d][..n]);
        let (rl, rr) = (&ql[0][..n], &qr[0][..n]);
        let (pl, pr) = (&prim.pl[..n], &prim.pr[..n]);
        let lam = &mut prim.lam[..n];
        for i in 0..n {
            let pel = (pl[i] + sl[i]).max(tiny);
            let per = (pr[i] + sr[i]).max(tiny);
            let wsl = unl[i].abs() + (gamma * pel / rl[i]).sqrt();
            let wsr = unr[i].abs() + (gamma * per / rr[i]).sqrt();
            lam[i] = wsl.max(wsr);
        }
    }

    // Flux rows: `inviscid_flux` + Lax–Friedrichs combine, per variable.
    let (unl, unr) = (&prim.ul[d][..n], &prim.ur[d][..n]);
    let (pl, pr) = (&prim.pl[..n], &prim.pr[..n]);
    let lam = &prim.lam[..n];
    for v in 0..NV {
        let (qlv, qrv) = (&ql[v][..n], &qr[v][..n]);
        let o = &mut out[v][..n];
        if v == 4 {
            for i in 0..n {
                let fl = (qlv[i] + (pl[i] + sl[i])) * unl[i];
                let fr = (qrv[i] + (pr[i] + sr[i])) * unr[i];
                o[i] = R::HALF * (fl + fr) - R::HALF * lam[i] * (qrv[i] - qlv[i]);
            }
        } else if v == 1 + d {
            for i in 0..n {
                let fl = qlv[i] * unl[i] + (pl[i] + sl[i]);
                let fr = qrv[i] * unr[i] + (pr[i] + sr[i]);
                o[i] = R::HALF * (fl + fr) - R::HALF * lam[i] * (qrv[i] - qlv[i]);
            }
        } else {
            for i in 0..n {
                let fl = qlv[i] * unl[i];
                let fr = qrv[i] * unr[i];
                o[i] = R::HALF * (fl + fr) - R::HALF * lam[i] * (qrv[i] - qlv[i]);
            }
        }
    }

    // Viscous contribution: cold on the bench workloads; per-interface
    // scalar, identical to the reference path.
    if p.viscous {
        for i in 0..n {
            let mut f: Cons<R> = std::array::from_fn(|v| out[v][i]);
            let prl = Prim {
                rho: ql[0][i],
                vel: [prim.ul[0][i], prim.ul[1][i], prim.ul[2][i]],
                p: prim.pl[i],
            };
            let prr = Prim {
                rho: qr[0][i],
                vel: [prim.ur[0][i], prim.ur[1][i], prim.ur[2][i]],
                p: prim.pr[i],
            };
            p.subtract_viscous_flux(d, row_c + i, &prl, &prr, &mut f);
            for v in 0..NV {
                out[v][i] = f[v];
            }
        }
    }
}

/// X sweep, fused: unpack each ghost-padded row once, then run the full
/// reconstruction + flux pipeline as unit-stride row passes and difference
/// consecutive interface fluxes per variable.
fn sweep_x_fused<R: Real, S: Storage<R>>(
    p: &FluxParams<'_, R, S>,
    chunks: &mut [&mut [S::Packed]; NV],
    off: usize,
    j_range: Range<i32>,
    k_range: Range<i32>,
    scratch: &mut Scratch<R>,
) {
    let shape = p.shape;
    let inv_dx = p.inv_dx[0];
    let nx = shape.nx;
    let g = shape.ghosts(Axis::X);
    debug_assert!(g >= 3, "x sweep needs the full 6-cell window in ghosts");
    let nxe = nx + 2 * g;
    let n_if = nx + 1; // interfaces -1/2 .. nx-1/2
    let o0 = g - 3; // padded-row offset of window cell o=0 at interface t=0

    let Scratch {
        xw,
        ql,
        qr,
        sl,
        sr,
        prim,
        fa,
        ..
    } = scratch;

    for k in k_range {
        for j in j_range.clone() {
            let base = shape.idx(0, j, k);
            load_row(p, base - g, nxe, xw);

            // Unit-stride reconstruction over the whole row: interface t
            // (between cells t-1 and t) reads padded cells o0+t .. o0+t+5.
            for v in 0..NV {
                let w: [&[R]; 6] = std::array::from_fn(|o| &xw.q[v][o0 + o..o0 + o + n_if]);
                recon_rows(p.order, w, &mut ql[v][..n_if], &mut qr[v][..n_if]);
            }
            if p.use_sigma {
                let w: [&[R]; 6] = std::array::from_fn(|o| &xw.s[o0 + o..o0 + o + n_if]);
                recon_rows(p.order, w, &mut sl[..n_if], &mut sr[..n_if]);
            }

            flux_row_core(
                p,
                0,
                base - 1,
                n_if,
                ql,
                qr,
                sl,
                sr,
                prim,
                |t| {
                    (
                        [
                            std::array::from_fn(|v| xw.q[v][g - 1 + t]),
                            std::array::from_fn(|v| xw.q[v][g + t]),
                        ],
                        [xw.s[g - 1 + t], xw.s[g + t]],
                    )
                },
                fa,
            );

            // Flux difference per variable: acc += (F_{c-1/2} - F_{c+1/2})/dx.
            for v in 0..NV {
                let row = &mut chunks[v][base - off..base - off + nx];
                accumulate_row::<R, S>(row, &fa[v][..nx], &fa[v][1..n_if], inv_dx);
            }
        }
    }
}

/// One row of transverse-interface fluxes from a 6-row window (fused path).
/// `row_c` is the linear start of the cell row on the low side of the
/// interface (window position 2).
#[allow(clippy::too_many_arguments)]
fn flux_row_from_window<R: Real, S: Storage<R>>(
    p: &FluxParams<'_, R, S>,
    d: usize,
    row_c: usize,
    win: &[RowBuf<R>],
    ql: &mut [Vec<R>; NV],
    qr: &mut [Vec<R>; NV],
    sl: &mut [R],
    sr: &mut [R],
    prim: &mut PrimRows<R>,
    out: &mut [Vec<R>; NV],
    nx: usize,
) {
    for v in 0..NV {
        let w: [&[R]; 6] = std::array::from_fn(|o| &win[o].q[v][..nx]);
        recon_rows(p.order, w, &mut ql[v][..nx], &mut qr[v][..nx]);
    }
    if p.use_sigma {
        let w: [&[R]; 6] = std::array::from_fn(|o| &win[o].s[..nx]);
        recon_rows(p.order, w, &mut sl[..nx], &mut sr[..nx]);
    }
    flux_row_core(
        p,
        d,
        row_c,
        nx,
        ql,
        qr,
        sl,
        sr,
        prim,
        |i| {
            (
                [
                    std::array::from_fn(|v| win[2].q[v][i]),
                    std::array::from_fn(|v| win[3].q[v][i]),
                ],
                [win[2].s[i], win[3].s[i]],
            )
        },
        out,
    );
}

/// Y/Z sweep, fused: a rolling 6-row SoA window (each cell row unpacked once
/// per sweep instead of once per window position), row-pass reconstruction
/// and fluxes, and the same consecutive-row flux differencing as the
/// reference.
fn sweep_yz_fused<R: Real, S: Storage<R>>(
    p: &FluxParams<'_, R, S>,
    chunks: &mut [&mut [S::Packed]; NV],
    off: usize,
    axis: Axis,
    j_range: Range<i32>,
    k_range: Range<i32>,
    scratch: &mut Scratch<R>,
) {
    let shape = p.shape;
    let d = axis.dim();
    let st = p.strides[d];
    let inv_dx = p.inv_dx[d];
    let nx = shape.nx;

    let Scratch {
        win,
        ql,
        qr,
        sl,
        sr,
        prim,
        fa,
        fb,
        ..
    } = scratch;
    let (mut lo, mut hi) = (fa, fb);

    // The transverse row index runs over `outer`; the sweep advances `inner`.
    // Y: outer = k-range, inner = j-range. Z: outer = j-range, inner = k-range.
    let (outer, inner) = match axis {
        Axis::Y => (k_range, j_range),
        Axis::Z => (j_range, k_range),
        Axis::X => unreachable!("x uses sweep_x_fused"),
    };

    for t in outer {
        // Row start of sweep position `c` at transverse index `t`.
        let row_start = |c: i32| -> usize {
            match axis {
                Axis::Y => shape.idx(0, c, t),
                _ => shape.idx(0, t, c),
            }
        };

        // Prime the window with cell rows (start-3 .. start+2) and the low
        // interface flux row (between rows start-1 and start).
        let c0 = inner.start;
        for (o, buf) in win.iter_mut().enumerate() {
            load_row(p, row_start(c0 - 3 + o as i32), nx, buf);
        }
        flux_row_from_window(p, d, row_start(c0 - 1), win, ql, qr, sl, sr, prim, lo, nx);

        for c in inner.clone() {
            // Advance the window to rows (c-2 .. c+3).
            win.rotate_left(1);
            load_row(p, row_start(c + 3), nx, &mut win[5]);
            let row = row_start(c);
            debug_assert_eq!(row, row_start(c0 - 1) + ((c - (c0 - 1)) as usize) * st);
            flux_row_from_window(p, d, row, win, ql, qr, sl, sr, prim, hi, nx);

            for v in 0..NV {
                let cells = &mut chunks[v][row - off..row - off + nx];
                accumulate_row::<R, S>(cells, &lo[v][..nx], &hi[v][..nx], inv_dx);
            }
            std::mem::swap(&mut lo, &mut hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::{fill_ghosts, BcSet, ALL_FACES};
    use crate::eos::Prim;
    use igr_prec::StoreF64;

    type St = State<f64, StoreF64>;
    type F = Field<f64, StoreF64>;

    fn rhs_of(
        shape: GridShape,
        init: impl Fn([f64; 3]) -> Prim<f64>,
        order: ReconOrder,
        mu: f64,
    ) -> (St, Domain) {
        rhs_of_kernel(shape, init, order, mu, KernelPath::Fused)
    }

    fn rhs_of_kernel(
        shape: GridShape,
        init: impl Fn([f64; 3]) -> Prim<f64>,
        order: ReconOrder,
        mu: f64,
        kernel: KernelPath,
    ) -> (St, Domain) {
        let domain = Domain::unit(shape);
        let mut q = St::zeros(shape);
        q.set_prim_field(&domain, 1.4, init);
        fill_ghosts(
            &mut q,
            &domain,
            &BcSet::all_periodic(),
            1.4,
            0.0,
            &ALL_FACES,
        );
        let sigma = F::zeros(shape);
        let params =
            FluxParams::new(&q, &sigma, &domain, 1.4, mu, 0.0, order, false).with_kernel(kernel);
        let mut rhs = St::zeros(shape);
        accumulate_fluxes(&params, &mut rhs);
        (rhs, domain)
    }

    #[test]
    fn uniform_state_has_zero_rhs() {
        for shape in [
            GridShape::new(16, 1, 1, 3),
            GridShape::new(8, 8, 1, 3),
            GridShape::new(6, 6, 6, 3),
        ] {
            let (rhs, _) = rhs_of(
                shape,
                |_| Prim::new(1.0, [0.3, -0.2, 0.7], 2.0),
                ReconOrder::Fifth,
                0.0,
            );
            for f in rhs.fields() {
                assert!(
                    f.max_interior(|x| x.abs()) < 1e-13,
                    "uniform flow must be an equilibrium, shape {shape:?}"
                );
            }
        }
    }

    #[test]
    fn rhs_conserves_totals_on_periodic_grid() {
        // Flux-difference form: the sum of the RHS over a periodic box
        // telescopes to zero for every conserved variable.
        let shape = GridShape::new(12, 10, 8, 3);
        let tau = std::f64::consts::TAU;
        let (rhs, _) = rhs_of(
            shape,
            |p| {
                Prim::new(
                    1.0 + 0.3 * (tau * p[0]).sin() * (tau * p[1]).cos(),
                    [0.5 * (tau * p[2]).sin(), -0.2, 0.1 * (tau * p[0]).cos()],
                    1.0 + 0.2 * (tau * p[1]).sin(),
                )
            },
            ReconOrder::Fifth,
            0.0,
        );
        for (v, f) in rhs.fields().into_iter().enumerate() {
            let total = f.sum_interior(|x| x);
            let scale = f.max_interior(|x| x.abs()).max(1.0);
            assert!(
                total.abs() < 1e-10 * scale * shape.n_interior() as f64,
                "var {v}: total {total}"
            );
        }
    }

    #[test]
    fn viscous_terms_conserve_too() {
        let shape = GridShape::new(10, 8, 6, 3);
        let tau = std::f64::consts::TAU;
        let (rhs, _) = rhs_of(
            shape,
            |p| Prim::new(1.0, [(tau * p[1]).sin(), (tau * p[2]).cos(), 0.0], 1.0),
            ReconOrder::Fifth,
            0.05,
        );
        for (v, f) in rhs.fields().into_iter().enumerate() {
            let total = f.sum_interior(|x| x);
            assert!(total.abs() < 1e-9, "var {v}: total {total}");
        }
    }

    #[test]
    fn rhs_is_independent_of_thread_count_bitwise() {
        let shape = GridShape::new(16, 12, 10, 3);
        let tau = std::f64::consts::TAU;
        let init = |p: [f64; 3]| {
            Prim::new(
                1.0 + 0.2 * (tau * p[0]).sin(),
                [0.4 * (tau * p[1]).cos(), 0.1, -0.3 * (tau * p[2]).sin()],
                1.0,
            )
        };
        let pool1 = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let pool4 = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for kernel in [KernelPath::Reference, KernelPath::Fused] {
            let r1 =
                pool1.install(|| rhs_of_kernel(shape, init, ReconOrder::Fifth, 0.01, kernel).0);
            let r4 =
                pool4.install(|| rhs_of_kernel(shape, init, ReconOrder::Fifth, 0.01, kernel).0);
            assert_eq!(
                r1.max_diff(&r4),
                0.0,
                "flux accumulation must be deterministic ({kernel:?})"
            );
        }
    }

    #[test]
    fn fused_kernel_matches_reference_bitwise() {
        // The fused path reorders memory traffic, never arithmetic: identical
        // output bits on every grid dimensionality, order, and viscosity.
        let tau = std::f64::consts::TAU;
        let init = |p: [f64; 3]| {
            Prim::new(
                1.0 + 0.25 * (tau * p[0]).sin() * (tau * (p[1] + p[2])).cos(),
                [
                    0.4 * (tau * p[1]).cos(),
                    -0.3 * (tau * p[2]).sin(),
                    0.2 * (tau * p[0]).sin(),
                ],
                1.0 + 0.3 * (tau * p[2]).sin(),
            )
        };
        for shape in [
            GridShape::new(17, 1, 1, 3),
            GridShape::new(11, 9, 1, 3),
            GridShape::new(9, 7, 6, 3),
        ] {
            for order in [ReconOrder::First, ReconOrder::Third, ReconOrder::Fifth] {
                for mu in [0.0, 0.02] {
                    let (r_ref, _) = rhs_of_kernel(shape, init, order, mu, KernelPath::Reference);
                    let (r_fused, _) = rhs_of_kernel(shape, init, order, mu, KernelPath::Fused);
                    assert_eq!(
                        r_ref.max_diff(&r_fused),
                        0.0,
                        "shape {shape:?} order {order:?} mu {mu}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_kernel_matches_reference_with_sigma() {
        // Σ reconstruction and the donor fallback's Σ path must also agree.
        let shape = GridShape::new(10, 8, 6, 3);
        let domain = Domain::unit(shape);
        let tau = std::f64::consts::TAU;
        let mut q = St::zeros(shape);
        q.set_prim_field(&domain, 1.4, |p| {
            Prim::new(
                1.0 + 0.2 * (tau * p[0]).sin(),
                [0.3 * (tau * p[1]).cos(), 0.1, -0.2 * (tau * p[2]).sin()],
                1.0,
            )
        });
        fill_ghosts(
            &mut q,
            &domain,
            &BcSet::all_periodic(),
            1.4,
            0.0,
            &ALL_FACES,
        );
        let mut sigma = F::zeros(shape);
        sigma.map_interior(|i, j, k, _| 0.01 * ((i + 2 * j + 3 * k) as f64).sin());
        crate::bc::fill_scalar_ghosts(&mut sigma, &BcSet::all_periodic(), &ALL_FACES);

        let run = |kernel: KernelPath| -> St {
            let params =
                FluxParams::new(&q, &sigma, &domain, 1.4, 0.0, 0.0, ReconOrder::Fifth, true)
                    .with_kernel(kernel);
            let mut rhs = St::zeros(shape);
            accumulate_fluxes(&params, &mut rhs);
            rhs
        };
        assert_eq!(
            run(KernelPath::Reference).max_diff(&run(KernelPath::Fused)),
            0.0
        );
    }

    #[test]
    fn layer_chunks_spread_the_remainder() {
        for (n_layers, threads) in [
            (1usize, 1usize),
            (1, 8),
            (5, 4),
            (13, 3),
            (17, 16),
            (22, 3),
            (38, 3),
            (64, 8),
            (129, 8),
            (1000, 7),
        ] {
            let counts = layer_chunks(n_layers, threads);
            assert_eq!(
                counts.iter().sum::<usize>(),
                n_layers,
                "counts must cover all layers ({n_layers}, {threads})"
            );
            assert!(!counts.is_empty());
            assert!(counts.len() <= (4 * threads).max(1));
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(
                max - min <= 1,
                "({n_layers}, {threads}): near-equal chunks required, got {counts:?}"
            );
            assert!(min >= 1, "no empty chunks: {counts:?}");
            // Remainder goes to leading chunks: sizes must be non-increasing.
            assert!(
                counts.windows(2).all(|w| w[0] >= w[1]),
                "remainder must lead: {counts:?}"
            );
        }
    }

    #[test]
    fn advection_rhs_matches_analytic_derivative() {
        // Pure density advection: rho = 1 + eps sin(2 pi x), u = const, p
        // uniform. d rho/dt = -u d rho/dx. With eps small the problem is
        // smooth and 5th-order recon should nail the derivative.
        let n = 64;
        let shape = GridShape::new(n, 1, 1, 3);
        let tau = std::f64::consts::TAU;
        let u0 = 0.7;
        let eps = 1e-3;
        let (rhs, domain) = rhs_of(
            shape,
            |p| Prim::new(1.0 + eps * (tau * p[0]).sin(), [u0, 0.0, 0.0], 1.0),
            ReconOrder::Fifth,
            0.0,
        );
        let mut max_err = 0.0f64;
        for i in 0..n as i32 {
            let x = domain.center(Axis::X, i);
            let expect = -u0 * eps * tau * (tau * x).cos();
            max_err = max_err.max((rhs.rho.at(i, 0, 0) - expect).abs());
        }
        // Error has two parts: recon truncation O(h^5) and the pressure-free
        // linearization O(eps^2); both are far below eps here.
        assert!(max_err < 1e-6 * eps.max(1e-9) / 1e-3, "max_err {max_err}");
    }

    #[test]
    fn sigma_gradient_accelerates_momentum() {
        // Uniform gas at rest with a linear sigma profile: the momentum RHS
        // must equal -d(sigma)/dx and energy RHS must be -d(sigma*u)/dx = 0.
        let n = 32;
        let shape = GridShape::new(n, 1, 1, 3);
        let domain = Domain::unit(shape);
        let mut q = St::zeros(shape);
        q.set_prim_field(&domain, 1.4, |_| Prim::new(1.0, [0.0; 3], 1.0));
        fill_ghosts(&mut q, &domain, &BcSet::all_outflow(), 1.4, 0.0, &ALL_FACES);
        let mut sigma = F::zeros(shape);
        let slope = 0.3;
        // Linear in x, including ghosts so the reconstruction sees the trend.
        let gx = shape.ghosts(Axis::X) as i32;
        for i in -gx..(n as i32 + gx) {
            let x = domain.center(Axis::X, i);
            sigma.set(i, 0, 0, slope * x);
        }
        let params = FluxParams::new(&q, &sigma, &domain, 1.4, 0.0, 0.0, ReconOrder::Fifth, true);
        let mut rhs = St::zeros(shape);
        accumulate_fluxes(&params, &mut rhs);
        for i in 2..(n as i32 - 2) {
            assert!(
                (rhs.mx.at(i, 0, 0) + slope).abs() < 1e-11,
                "d(m)/dt = -dSigma/dx at i={i}: {}",
                rhs.mx.at(i, 0, 0)
            );
            assert!(rhs.en.at(i, 0, 0).abs() < 1e-12, "no energy flux at rest");
            assert!(rhs.rho.at(i, 0, 0).abs() < 1e-12);
        }
    }

    #[test]
    fn positivity_fallback_keeps_flux_finite() {
        // A near-vacuum cell adjacent to a dense one: linear recon would
        // produce a negative density; the donor-cell fallback must keep
        // everything finite (on both kernel paths).
        for kernel in [KernelPath::Reference, KernelPath::Fused] {
            let shape = GridShape::new(16, 1, 1, 3);
            let domain = Domain::unit(shape);
            let mut q = St::zeros(shape);
            q.set_prim_field(&domain, 1.4, |p| {
                if p[0] < 0.5 {
                    Prim::new(1.0, [0.0; 3], 1.0)
                } else {
                    Prim::new(1e-6, [0.0; 3], 1e-6)
                }
            });
            fill_ghosts(&mut q, &domain, &BcSet::all_outflow(), 1.4, 0.0, &ALL_FACES);
            let sigma = F::zeros(shape);
            let params =
                FluxParams::new(&q, &sigma, &domain, 1.4, 0.0, 0.0, ReconOrder::Fifth, false)
                    .with_kernel(kernel);
            let mut rhs = St::zeros(shape);
            accumulate_fluxes(&params, &mut rhs);
            assert!(rhs.find_non_finite().is_none(), "{kernel:?}");
        }
    }

    #[test]
    fn lower_order_recon_gives_larger_advection_error() {
        let n = 32;
        let shape = GridShape::new(n, 1, 1, 3);
        let tau = std::f64::consts::TAU;
        let init = |p: [f64; 3]| Prim::new(1.0 + 0.1 * (tau * p[0]).sin(), [1.0, 0.0, 0.0], 1.0);
        let err = |order: ReconOrder| {
            let (rhs, domain) = rhs_of(shape, init, order, 0.0);
            let mut e = 0.0f64;
            for i in 0..n as i32 {
                let x = domain.center(Axis::X, i);
                let expect = -0.1 * tau * (tau * x).cos();
                e = e.max((rhs.rho.at(i, 0, 0) - expect).abs());
            }
            e
        };
        let e1 = err(ReconOrder::First);
        let e3 = err(ReconOrder::Third);
        let e5 = err(ReconOrder::Fifth);
        assert!(e5 < e3 && e3 < e1, "e5={e5} e3={e3} e1={e1}");
    }
}
