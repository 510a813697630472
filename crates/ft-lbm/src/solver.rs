//! The entropic lattice Boltzmann solver: collide-and-stream on a periodic
//! box, with the entropic α-stabilizer.

pub use ft_analysis::SolverError;
use ft_tensor::{Isa, Tensor};
use rayon::prelude::*;

use crate::force::{guo_source, BodyForce};
use crate::lattice::{entropy, equilibrium, moments, D2Q9};

/// Total collide-stream site updates (`steps × n²`) across all [`Lbm`]
/// instances; ticks only while `ft-obs` instrumentation is enabled.
static LBM_SITE_UPDATES: ft_obs::Counter = ft_obs::Counter::new("lbm.site_updates");
/// Million lattice updates per second achieved by the most recent
/// [`Lbm::run`] call — the standard LBM throughput figure.
static LBM_MLUPS: ft_obs::Gauge = ft_obs::Gauge::new("lbm.mlups");
/// Distribution of individual collide-stream step durations. The MLUPS
/// gauge averages a whole run; this catches the p99/max tail (allocator
/// stalls, thread-pool contention) a mean hides.
static LBM_STEP_SECONDS: ft_obs::Histogram = ft_obs::Histogram::new("lbm.step_seconds");

/// Collision operator selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Collision {
    /// Single-relaxation-time BGK (α = 2).
    Bgk,
    /// Entropic stabilizer: α from the H-theorem equality (the paper's
    /// generator).
    Entropic,
}

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct LbmConfig {
    /// Grid points per side (square periodic domain).
    pub n: usize,
    /// Kinematic viscosity in lattice units.
    pub nu: f64,
    /// Characteristic velocity (lattice units) used to define the convective
    /// time `t_c = n / u0`.
    pub u0: f64,
    /// Collision operator.
    pub collision: Collision,
}

impl LbmConfig {
    /// Configuration matching the paper's setup, scaled to grid size `n`:
    /// Mach ≈ 0.05 and a viscosity that lands the Reynolds number
    /// `Re = u0·n/ν` in the requested band.
    pub fn with_reynolds(n: usize, reynolds: f64) -> Self {
        let u0 = 0.05;
        let nu = u0 * n as f64 / reynolds;
        LbmConfig { n, nu, u0, collision: Collision::Entropic }
    }

    /// BGK relaxation frequency ω = 1/τ implied by the viscosity:
    /// `ν = c_s² (τ − 1/2)`.
    pub fn omega(&self) -> f64 {
        1.0 / (self.nu / D2Q9::CS2 + 0.5)
    }

    /// Convective time `t_c = L/U₀` in lattice steps.
    pub fn t_c(&self) -> f64 {
        self.n as f64 / self.u0
    }

    /// Reynolds number `U₀·L/ν` implied by the configuration.
    pub fn reynolds(&self) -> f64 {
        self.u0 * self.n as f64 / self.nu
    }
}

/// Entropic lattice Boltzmann solver on an `n × n` periodic grid.
///
/// Populations are stored structure-of-arrays: nine contiguous planes of
/// `n·n` values, so streaming is a cache-friendly shifted copy per plane and
/// collision reads and writes a group of eight neighbouring cells as one
/// contiguous run per plane.
pub struct Lbm {
    cfg: LbmConfig,
    /// `Q` planes, each `n·n`, row-major (y major, x minor).
    f: Vec<f64>,
    /// Streaming scratch (same layout).
    scratch: Vec<f64>,
    /// Number of collide-stream steps taken.
    steps: u64,
    /// Optional body force (Guo scheme).
    force: Option<BodyForce>,
    /// Optional live physics probe, ticked by [`Lbm::try_run`].
    probe: Option<ft_analysis::DiagnosticsProbe>,
}

impl Lbm {
    /// Creates a solver initialized to rest (ρ = 1, u = 0).
    pub fn new(cfg: LbmConfig) -> Self {
        let plane = cfg.n * cfg.n;
        let mut f = vec![0.0; D2Q9::Q * plane];
        for i in 0..D2Q9::Q {
            let w = D2Q9::W[i];
            f[i * plane..(i + 1) * plane].iter_mut().for_each(|v| *v = w);
        }
        let scratch = vec![0.0; D2Q9::Q * plane];
        Lbm { cfg, f, scratch, steps: 0, force: None, probe: None }
    }

    /// Attaches a [`ft_analysis::DiagnosticsProbe`]; [`Lbm::try_run`]
    /// ticks it and emits `physics` records at its cadence.
    pub fn set_probe(&mut self, probe: ft_analysis::DiagnosticsProbe) {
        self.probe = Some(probe);
    }

    /// Installs a stationary body force (Guo forcing scheme) — the
    /// forced-turbulence extension. Pass fields of shape `[n, n]`.
    pub fn set_force(&mut self, force: BodyForce) {
        let n = self.cfg.n;
        assert_eq!(force.fx.dims(), &[n, n], "force fx shape");
        assert_eq!(force.fy.dims(), &[n, n], "force fy shape");
        self.force = Some(force);
    }

    /// The configuration this solver was built with.
    pub fn config(&self) -> &LbmConfig {
        &self.cfg
    }

    /// Steps taken since construction.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Initializes populations to the entropic equilibrium of the given
    /// velocity field at unit density. Field shapes must be `[n, n]`.
    pub fn set_velocity(&mut self, ux: &Tensor, uy: &Tensor) {
        let n = self.cfg.n;
        assert_eq!(ux.dims(), &[n, n], "ux shape");
        assert_eq!(uy.dims(), &[n, n], "uy shape");
        let plane = n * n;
        for idx in 0..plane {
            let feq = equilibrium(1.0, ux.data()[idx], uy.data()[idx]);
            for i in 0..D2Q9::Q {
                self.f[i * plane + idx] = feq[i];
            }
        }
        self.steps = 0;
    }

    /// Extracts the macroscopic density and velocity fields.
    pub fn macros(&self) -> (Tensor, Tensor, Tensor) {
        let n = self.cfg.n;
        let plane = n * n;
        let mut rho = vec![0.0; plane];
        let mut ux = vec![0.0; plane];
        let mut uy = vec![0.0; plane];
        for idx in 0..plane {
            let mut fi = [0.0f64; 9];
            for i in 0..D2Q9::Q {
                fi[i] = self.f[i * plane + idx];
            }
            let (r, mut jx, mut jy) = moments(&fi);
            // Guo scheme: the physical velocity includes half the force.
            if let Some(fc) = &self.force {
                jx += 0.5 * fc.fx.data()[idx];
                jy += 0.5 * fc.fy.data()[idx];
            }
            rho[idx] = r;
            ux[idx] = jx / r;
            uy[idx] = jy / r;
        }
        (
            Tensor::from_vec(&[n, n], rho),
            Tensor::from_vec(&[n, n], ux),
            Tensor::from_vec(&[n, n], uy),
        )
    }

    /// Velocity fields only (`(ux, uy)`).
    pub fn velocity(&self) -> (Tensor, Tensor) {
        let (_, ux, uy) = self.macros();
        (ux, uy)
    }

    /// Advances the solution by one collide-and-stream step.
    pub fn step(&mut self) {
        self.collide::<LANES>(Isa::host());
        self.stream();
        self.steps += 1;
    }

    /// Advances by `k` steps. With `ft-obs` instrumentation enabled, the
    /// call is timed under the `lbm.run` span, the `lbm.site_updates`
    /// counter advances by `k·n²`, and the `lbm.mlups` gauge records the
    /// achieved million-lattice-updates-per-second of this call.
    pub fn run(&mut self, k: usize) {
        let _span = ft_obs::span("lbm.run");
        let timer = ft_obs::enabled().then(std::time::Instant::now);
        if timer.is_some() {
            // Instrumented path: additionally time each collide-stream
            // step into the `lbm.step_seconds` distribution.
            for _ in 0..k {
                let t0 = std::time::Instant::now();
                self.step();
                LBM_STEP_SECONDS.observe(t0.elapsed().as_secs_f64());
            }
        } else {
            for _ in 0..k {
                self.step();
            }
        }
        if let Some(t0) = timer {
            let sites = (k * self.cfg.n * self.cfg.n) as u64;
            LBM_SITE_UPDATES.add(sites);
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 && sites > 0 {
                LBM_MLUPS.set(sites as f64 / secs / 1e6);
            }
        }
    }

    /// Cheap finiteness probe of the distribution functions: a strided
    /// sample of ~64 entries, not a full scan. Streaming spreads a
    /// non-finite population across the lattice within a few steps, so a
    /// sparse probe catches a blow-up almost immediately.
    pub fn check_finite(&self) -> Result<(), &'static str> {
        if ft_analysis::sample_finite(&self.f, 64) {
            Ok(())
        } else {
            Err("distribution")
        }
    }

    /// Advances by `k` steps, probing the state every `check_every` steps
    /// and stopping with [`SolverError::BlowUp`] instead of letting a
    /// non-finite field propagate into sampled datasets. A blow-up is
    /// recorded in the `ft-obs` flight recorder and triggers a dump; an
    /// attached [`ft_analysis::DiagnosticsProbe`] is ticked after every
    /// guarded chunk.
    pub fn try_run(&mut self, k: usize, check_every: usize) -> Result<(), SolverError> {
        let chunk = check_every.max(1);
        let mut done = 0usize;
        while done < k {
            let m = chunk.min(k - done);
            self.run(m);
            done += m;
            if let Err(field) = self.check_finite() {
                ft_analysis::report_blowup("lbm", self.steps, field);
                return Err(SolverError::BlowUp { step: self.steps, field });
            }
            if self.probe.as_mut().is_some_and(|p| p.advance(m as u64)) {
                let (ux, uy) = self.velocity();
                if let Some(p) = self.probe.as_mut() {
                    p.emit(&ux, &uy);
                }
            }
        }
        Ok(())
    }

    /// Advances until `t/t_c` first reaches or exceeds `t_conv`.
    pub fn run_convective(&mut self, t_conv: f64) {
        let target = (t_conv * self.cfg.t_c()).round() as u64;
        let remaining = target.saturating_sub(self.steps) as usize;
        self.run(remaining);
    }

    /// Collision: `f ← f + αβ (f^eq − f)` with α = 2 (BGK) or the entropic
    /// root, in place, in parallel groups of `L` neighbouring cells, each
    /// group compiled for `isa`. A group is its cells' run of `L` values in
    /// each plane (the last run may be shorter), so groups are disjoint.
    /// Every cell gets the bits of a one-cell group at [`Isa::Base`].
    fn collide<const L: usize>(&mut self, isa: Isa) {
        let plane = self.cfg.n * self.cfg.n;
        let beta = self.cfg.omega() / 2.0;
        let entropic = self.cfg.collision == Collision::Entropic;
        let force = self.force.as_ref();
        let mut planes = self.f.chunks_mut(plane).map(|p| p.chunks_mut(L));
        let mut planes: [_; 9] = std::array::from_fn(|_| planes.next().expect("nine planes"));
        let groups = std::iter::from_fn(|| {
            let runs = planes.each_mut().map(Iterator::next);
            runs[0].is_some().then(|| runs.map(|run| run.expect("planes of equal length")))
        });
        (0..plane.div_ceil(L)).into_par_iter().zip(groups).for_each(|(g, cells)| {
            isa.run(
                #[inline(always)]
                || collide_group::<L>(cells, g * L, beta, entropic, force),
            )
        });
    }

    /// Streaming: periodic shift of each plane by its lattice velocity.
    fn stream(&mut self) {
        let n = self.cfg.n;
        let plane = n * n;
        let f = &self.f;
        let scratch = &mut self.scratch;

        scratch
            .par_chunks_mut(plane)
            .enumerate()
            .for_each(|(i, dst)| {
                let src = &f[i * plane..(i + 1) * plane];
                let cx = D2Q9::CX[i];
                let cy = D2Q9::CY[i];
                if cx == 0 && cy == 0 {
                    dst.copy_from_slice(src);
                    return;
                }
                for y in 0..n {
                    let sy = ((y as i32 - cy).rem_euclid(n as i32)) as usize;
                    let drow = y * n;
                    let srow = sy * n;
                    if cx == 0 {
                        dst[drow..drow + n].copy_from_slice(&src[srow..srow + n]);
                    } else {
                        let shift = cx.rem_euclid(n as i32) as usize;
                        // dst[y][x] = src[sy][x - cx mod n]
                        // => dst row is src row rotated right by cx.
                        dst[drow + shift..drow + n].copy_from_slice(&src[srow..srow + n - shift]);
                        dst[drow..drow + shift].copy_from_slice(&src[srow + n - shift..srow + n]);
                    }
                }
            });
        std::mem::swap(&mut self.f, &mut self.scratch);
    }

    /// Total mass on the lattice (conserved exactly by collide and stream).
    pub fn total_mass(&self) -> f64 {
        self.f[..D2Q9::Q * self.cfg.n * self.cfg.n].iter().sum()
    }

    /// Total momentum on the lattice (conserved by collide and stream on a
    /// periodic box).
    pub fn total_momentum(&self) -> (f64, f64) {
        let plane = self.cfg.n * self.cfg.n;
        let mut jx = 0.0;
        let mut jy = 0.0;
        for i in 0..D2Q9::Q {
            let s: f64 = self.f[i * plane..(i + 1) * plane].iter().sum();
            jx += s * D2Q9::CX[i] as f64;
            jy += s * D2Q9::CY[i] as f64;
        }
        (jx, jy)
    }
}

/// Cells a collision group takes: one AVX-512 register of `f64` per
/// population, so each `G(α)` evaluation is nine vector `ln`s.
const LANES: usize = 8;

/// Collides one group in place: `cells[i]` holds population `i` of the
/// cells from index `first` on.
#[inline(always)]
fn collide_group<const L: usize>(
    mut cells: [&mut [f64]; 9],
    first: usize,
    beta: f64,
    entropic: bool,
    force: Option<&BodyForce>,
) {
    let len = cells[0].len();
    let mut f = [[0.0; L]; 9];
    for i in 0..D2Q9::Q {
        f[i][..len].copy_from_slice(cells[i]);
    }
    // Lanes past the group's end and lost cells keep Δ = 0, so their α
    // solve ends at once.
    let mut delta = [[0.0; L]; 9];
    // Guo-shifted velocity and force per lane; `None` marks a lost cell.
    let mut flow = [None; L];
    for l in 0..len {
        let fi: [f64; 9] = std::array::from_fn(|i| f[i][l]);
        let (rho, jx, jy) = moments(&fi);
        let (fx, fy) = match force {
            Some(fc) => (fc.fx.data()[first + l], fc.fy.data()[first + l]),
            None => (0.0, 0.0),
        };
        // Guo velocity shift: equilibrium evaluated at the force-corrected
        // velocity.
        let ux = (jx + 0.5 * fx) / rho;
        let uy = (jy + 0.5 * fy) / rho;
        // A velocity outside the lattice range (or non-finite) is a blow-up
        // in progress: the cell is marked non-finite below, so `try_run`
        // reports `SolverError::BlowUp` in every build.
        if ux.abs() < 1.0 && uy.abs() < 1.0 {
            let feq = equilibrium(rho, ux, uy);
            for i in 0..D2Q9::Q {
                delta[i][l] = feq[i] - fi[i];
            }
            flow[l] = Some((ux, uy, fx, fy));
        }
    }
    let alpha = if entropic { entropic_alphas(&f, &delta) } else { [2.0; L] };
    for l in 0..len {
        let Some((ux, uy, fx, fy)) = flow[l] else {
            cells.iter_mut().for_each(|c| c[l] = f64::NAN);
            continue;
        };
        let ab = alpha[l] * beta;
        if fx != 0.0 || fy != 0.0 {
            let src = guo_source(0.5 * ab, ux, uy, fx, fy);
            for i in 0..D2Q9::Q {
                cells[i][l] = f[i][l] + ab * delta[i][l] + src[i];
            }
        } else {
            for i in 0..D2Q9::Q {
                cells[i][l] = f[i][l] + ab * delta[i][l];
            }
        }
    }
}

/// Solves the entropy equality `H(f + αΔ) = H(f)` for the nontrivial root α.
///
/// `G(α) = H(f + αΔ) − H(f)` is convex with `G(0) = 0` and `G(1) ≤ 0`, so
/// the root lies above 1. The solve first brackets it: α = 2 (BGK) is
/// tried, then grown by ×1.25 while `G < 0`; a population reaching zero
/// first (the positivity barrier, `G = ∞`) caps α at the largest feasible
/// value instead. An unexpanded bracket `[1, 2]` checks `G(1) ≤ 0`; after
/// an expansion `lo` is an earlier `hi`, whose `G` was already found
/// `≤ 0`, so it is not evaluated again. Newton's method then runs from the
/// bracket's right end, where `G > 0`, so convexity makes its iterates
/// fall monotonically onto the root; a step that rounding throws outside
/// the bracket is replaced by a bisection step. Iteration stops once
/// `|G| ≤ 1e-13·max(|H(f)|, 1)` and takes one last Newton step from the
/// `G`, `G′` already in hand.
///
/// Returns 2 when the nonequilibrium is tiny or `G(2)` is already within
/// that noise floor (the entropic correction is then meaningless), and for a
/// degenerate bracket with `G(1) > 0`, which only a `Δ` that does not point
/// at the equilibrium can produce.
///
/// This is the one-lane call of the solve the collision runs on eight
/// cells in lockstep: the populations are stored population-major, each
/// lane carries its own phase of the search, and every `G` evaluation is
/// one vectorized in-tree `ln` per population across the lanes. A lane
/// performs exactly this call's operations in its order, so its α has
/// this call's bits.
pub fn entropic_alpha(f: &[f64; 9], delta: &[f64; 9]) -> f64 {
    entropic_alphas(&f.map(|v| [v]), &delta.map(|d| [d]))[0]
}

/// [`entropic_alpha`] for `L` cells in lockstep, population-major.
#[inline(always)]
fn entropic_alphas<const L: usize>(f: &[[f64; L]; 9], delta: &[[f64; L]; 9]) -> [f64; L] {
    let (h0, _) = entropy(f, &[[0.0; L]; 9]);
    let column = |a: &[[f64; L]; 9], l: usize| -> [f64; 9] { std::array::from_fn(|i| a[i][l]) };
    let lanes = std::array::from_fn(|l| Lane::start(&column(f, l), &column(delta, l), h0[l]));
    solve(&EntropyGap { f, delta, h0 }, lanes)
}

/// Runs each lane to [`Phase::Done`], one lockstep `G` evaluation at a
/// time, and returns the α of each.
#[inline(always)]
fn solve<const L: usize>(gap: &EntropyGap<'_, L>, mut lanes: [Lane; L]) -> [f64; L] {
    loop {
        lanes.iter_mut().for_each(Lane::next);
        if lanes.iter().all(|lane| lane.phase == Phase::Done) {
            return lanes.map(|lane| lane.alpha);
        }
        let (g, slope) = gap.eval(&lanes.map(|lane| lane.alpha));
        for l in 0..L {
            lanes[l].take(g[l], slope[l]);
        }
    }
}

/// `G(α) = H(f + αΔ) − H(f)` for `L` cells, population-major.
struct EntropyGap<'a, const L: usize> {
    f: &'a [[f64; L]; 9],
    delta: &'a [[f64; L]; 9],
    h0: [f64; L],
}

impl<const L: usize> EntropyGap<'_, L> {
    /// `G(α)` and `G′(α) = Σ Δᵢ ln((fᵢ + αΔᵢ)/wᵢ)` in each lane from one
    /// `ln` per population (the `ΣΔᵢ` term of the derivative is zero:
    /// collision conserves mass). Both are `+∞` past the positivity
    /// barrier, and `G` has the bits of
    /// [`h_function`](crate::lattice::h_function)`(f + αΔ) − H(f)`.
    #[inline(always)]
    fn eval(&self, alpha: &[f64; L]) -> ([f64; L], [f64; L]) {
        let fa = std::array::from_fn(|i| {
            std::array::from_fn(|l| self.f[i][l] + alpha[l] * self.delta[i][l])
        });
        let (h, slope) = entropy(&fa, self.delta);
        (std::array::from_fn(|l| h[l] - self.h0[l]), slope)
    }
}

/// Root iterates Newton's method may take. It needs about three; the
/// bisection fallback reaches one ulp of a bracket no wider than the
/// ×1.25²⁰ expansion within 64 halvings.
const MAX_ROOT_STEPS: u8 = 64;

/// Where one cell's α solve stands; the count is of `G` evaluations made
/// in the phase so far.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// α is decided.
    Done,
    /// `G(2)` is next.
    Two,
    /// Growing the bracket above 2 while `G(hi) ≤ 0`.
    Expand(u8),
    /// `G(1)` is next: a sign change in `[1, 2]` needs `G(1) ≤ 0`.
    One,
    /// Bisecting `[lo, hi]` for the largest feasible α.
    Barrier(u8),
    /// Newton's method on the bracket `[lo, hi]`.
    Newton(u8),
}

/// One cell's α solve between `G` evaluations.
#[derive(Clone, Copy, Debug)]
struct Lane {
    phase: Phase,
    /// Where `G` is evaluated next; in [`Phase::Newton`], the iterate whose
    /// `G` and `G′` are held; once done, the result.
    alpha: f64,
    lo: f64,
    hi: f64,
    /// `G` and `G′` at the Newton iterate (at `hi` = 2 while `G(1)` is
    /// checked).
    g: f64,
    slope: f64,
    /// `|G|` below this is rounding noise: `1e-13·max(|H(f)|, 1)`.
    noise: f64,
}

impl Lane {
    /// The guards of [`entropic_alpha`]: done at α = 2, or `G(2)` next.
    fn start(f: &[f64; 9], delta: &[f64; 9], h0: f64) -> Lane {
        let dnorm: f64 = delta.iter().map(|d| d * d).sum::<f64>().sqrt();
        let fnorm: f64 = f.iter().map(|v| v * v).sum::<f64>().sqrt();
        // Tiny nonequilibrium: G(2) is below floating-point noise and BGK
        // is exact to machine precision. Already infeasible populations
        // (shouldn't happen in a stable run) fall back to BGK rather than
        // propagate infinities.
        let done = dnorm < 1e-7 * fnorm.max(1e-300) || !h0.is_finite();
        Lane {
            phase: if done { Phase::Done } else { Phase::Two },
            alpha: 2.0,
            lo: 1.0,
            hi: 2.0,
            g: 0.0,
            slope: 0.0,
            noise: 1e-13 * h0.abs().max(1.0),
        }
    }

    /// Ends a converged (or capped) Newton phase with one last Newton step
    /// from the `G`, `G′` in hand, kept if it stays in the bracket; else
    /// moves to the next iterate. Other phases have their next α already.
    #[inline(always)]
    fn next(&mut self) {
        let Phase::Newton(steps) = self.phase else { return };
        let Lane { alpha, lo, hi, g, slope, noise, .. } = *self;
        let step = alpha - g / slope;
        if g.abs() <= noise || steps == MAX_ROOT_STEPS {
            self.alpha = if step >= lo && step <= hi { step } else { alpha };
            self.phase = Phase::Done;
        } else {
            self.alpha = if step > lo && step < hi { step } else { 0.5 * (lo + hi) };
        }
    }

    /// Takes `G` and `G′` at `self.alpha` and sets up the next evaluation.
    #[inline(always)]
    fn take(&mut self, g: f64, slope: f64) {
        match self.phase {
            Phase::Done => {}
            Phase::Two if g.abs() <= self.noise => {
                // The entropy equality already holds at BGK within noise.
                self.phase = Phase::Done;
            }
            Phase::Two if g < 0.0 => self.expand(0),
            // α = 2 infeasible: the largest feasible α in (1, 2).
            Phase::Two if !g.is_finite() => self.bisect(),
            Phase::Two => {
                (self.g, self.slope) = (g, slope);
                self.alpha = 1.0;
                self.phase = Phase::One;
            }
            // At most 20 steps of ×1.25.
            Phase::Expand(n) if g > 0.0 || n == 20 => {
                if !g.is_finite() {
                    // The positivity barrier comes before the entropy root.
                    self.bisect();
                } else if g < 0.0 {
                    // Never found a sign change: cap at the expanded value.
                    self.phase = Phase::Done;
                } else {
                    (self.g, self.slope) = (g, slope);
                    self.phase = Phase::Newton(0);
                }
            }
            Phase::Expand(n) => self.expand(n),
            Phase::One if g > 0.0 => {
                // Degenerate bracket (can only arise from noise); BGK is safe.
                self.alpha = 2.0;
                self.phase = Phase::Done;
            }
            Phase::One => {
                self.alpha = self.hi;
                self.phase = Phase::Newton(0);
            }
            Phase::Barrier(n) => {
                if g.is_finite() {
                    self.lo = self.alpha;
                } else {
                    self.hi = self.alpha;
                }
                // 60 halvings in all.
                if n + 1 == 60 {
                    self.alpha = self.lo;
                    self.phase = Phase::Done;
                } else {
                    self.alpha = 0.5 * (self.lo + self.hi);
                    self.phase = Phase::Barrier(n + 1);
                }
            }
            Phase::Newton(n) => {
                (self.g, self.slope) = (g, slope);
                if !g.is_finite() || g > 0.0 {
                    self.hi = self.alpha;
                } else {
                    self.lo = self.alpha;
                }
                self.phase = Phase::Newton(n + 1);
            }
        }
    }

    /// One more ×1.25 step of the bracket above 2.
    fn expand(&mut self, n: u8) {
        self.lo = self.hi;
        self.hi *= 1.25;
        self.alpha = self.hi;
        self.phase = Phase::Expand(n + 1);
    }

    /// Starts the bisection of `[lo, hi]` (`lo` feasible, `hi` not) for
    /// the positivity barrier.
    fn bisect(&mut self) {
        self.alpha = 0.5 * (self.lo + self.hi);
        self.phase = Phase::Barrier(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::vorticity;
    use crate::ic::IcSpec;
    use crate::lattice::h_function;
    use std::f64::consts::PI;

    fn taylor_green(n: usize, u0: f64) -> (Tensor, Tensor) {
        let k = 2.0 * PI / n as f64;
        let ux = Tensor::from_fn(&[n, n], |i| {
            let (y, x) = (i[0] as f64, i[1] as f64);
            -u0 * (k * x).cos() * (k * y).sin()
        });
        let uy = Tensor::from_fn(&[n, n], |i| {
            let (y, x) = (i[0] as f64, i[1] as f64);
            u0 * (k * x).sin() * (k * y).cos()
        });
        (ux, uy)
    }

    #[test]
    fn conservation_of_mass_and_momentum() {
        let cfg = LbmConfig { n: 32, nu: 0.01, u0: 0.05, collision: Collision::Entropic };
        let mut lbm = Lbm::new(cfg);
        let spec = IcSpec::default();
        let (ux, uy) = spec.generate(32, 0.05, 42);
        lbm.set_velocity(&ux, &uy);
        let m0 = lbm.total_mass();
        let (jx0, jy0) = lbm.total_momentum();
        lbm.run(50);
        let m1 = lbm.total_mass();
        let (jx1, jy1) = lbm.total_momentum();
        assert!((m0 - m1).abs() < 1e-9 * m0, "mass drift {}", (m0 - m1).abs());
        assert!((jx0 - jx1).abs() < 1e-9 && (jy0 - jy1).abs() < 1e-9, "momentum drift");
    }

    #[test]
    fn taylor_green_viscous_decay_rate() {
        // The Taylor-Green vortex decays as e^{-2νk²t}; measure ν from the
        // kinetic-energy decay and compare with the configured viscosity.
        let n = 64;
        let nu = 0.02;
        let cfg = LbmConfig { n, nu, u0: 0.02, collision: Collision::Bgk };
        let mut lbm = Lbm::new(cfg);
        let (ux, uy) = taylor_green(n, 0.02);
        lbm.set_velocity(&ux, &uy);

        let e = |l: &Lbm| {
            let (ux, uy) = l.velocity();
            ux.data().iter().map(|v| v * v).sum::<f64>()
                + uy.data().iter().map(|v| v * v).sum::<f64>()
        };
        let e0 = e(&lbm);
        let steps = 200;
        lbm.run(steps);
        let e1 = e(&lbm);
        let k = 2.0 * PI / n as f64;
        let measured_nu = -(e1 / e0).ln() / (4.0 * k * k * steps as f64);
        let rel_err = (measured_nu - nu).abs() / nu;
        assert!(rel_err < 0.05, "measured ν = {measured_nu}, expected {nu} (rel {rel_err})");
    }

    #[test]
    fn entropic_matches_bgk_in_resolved_regime() {
        // Well-resolved flow: α should stay ≈ 2 and the entropic run should
        // track BGK closely.
        let n = 32;
        let mk = |collision| {
            let cfg = LbmConfig { n, nu: 0.02, u0: 0.02, collision };
            let mut l = Lbm::new(cfg);
            let (ux, uy) = taylor_green(n, 0.02);
            l.set_velocity(&ux, &uy);
            l.run(100);
            l.velocity()
        };
        let (uxa, uya) = mk(Collision::Entropic);
        let (uxb, uyb) = mk(Collision::Bgk);
        let diff = uxa.sub(&uxb).norm_l2() / uxb.norm_l2().max(1e-300);
        assert!(diff < 1e-4, "entropic deviates from BGK in resolved regime: {diff}");
        let _ = (uya, uyb);
    }

    #[test]
    fn entropic_outlives_bgk_at_marginal_resolution() {
        // `ablation_entropic`'s fast configuration: Re = 2·10⁴ on 32² at
        // u0 = 0.1 underresolves the flow (τ → 1/2). Same initial state,
        // same equilibrium; only α differs. BGK (α = 2) drives a velocity
        // out of lattice range after step 80, which the collision marks
        // non-finite (blow-up at the step-96 probe); the entropic α keeps
        // the run finite to the end.
        let (n, u0, reynolds) = (32, 0.1, 2e4);
        let (ux, uy) = IcSpec { k_min: 2, k_max: 8 }.generate(n, u0, 3);
        let run = |collision| {
            let mut lbm = Lbm::new(LbmConfig { n, nu: u0 * n as f64 / reynolds, u0, collision });
            lbm.set_velocity(&ux, &uy);
            lbm.try_run(1920, 32).map(|()| lbm.velocity())
        };
        assert!(
            matches!(run(Collision::Bgk), Err(SolverError::BlowUp { .. })),
            "BGK was expected to blow up at this resolution"
        );
        let (vx, vy) = run(Collision::Entropic).expect("entropic run stays finite");
        assert!(vx.all_finite() && vy.all_finite());
    }

    #[test]
    fn entropic_alpha_near_two_for_small_nonequilibrium() {
        let f = equilibrium(1.0, 0.03, -0.02);
        let target = equilibrium(1.0, 0.0301, -0.0199);
        let mut delta = [0.0; 9];
        for i in 0..9 {
            delta[i] = target[i] - f[i];
        }
        let alpha = entropic_alpha(&f, &delta);
        assert!((alpha - 2.0).abs() < 0.05, "alpha = {alpha}");
    }

    #[test]
    fn entropic_alpha_respects_positivity() {
        // Construct a strong nonequilibrium where α = 2 would drive a
        // population negative; the solver must return a smaller, positive α.
        let feq = equilibrium(1.0, 0.0, 0.0);
        let mut f = feq;
        f[1] = 0.02;
        f[3] += feq[1] - 0.02; // keep mass
        let mut delta = [0.0; 9];
        let (rho, jx, jy) = moments(&f);
        let eq = equilibrium(rho, jx / rho, jy / rho);
        for i in 0..9 {
            delta[i] = eq[i] - f[i];
        }
        let alpha = entropic_alpha(&f, &delta);
        assert!(alpha > 0.0 && alpha <= 2.5);
        for i in 0..9 {
            assert!(f[i] + alpha * 0.5 * delta[i] > 0.0, "population {i} went negative");
        }
    }

    /// One cell's `G`: the lanes' [`EntropyGap`] at one lane.
    struct CellGap<'a> {
        f: &'a [f64; 9],
        delta: &'a [f64; 9],
        h0: f64,
    }

    impl CellGap<'_> {
        fn eval(&self, alpha: f64) -> (f64, f64) {
            let (f, delta) = (self.f.map(|v| [v]), self.delta.map(|d| [d]));
            let (g, slope) = EntropyGap { f: &f, delta: &delta, h0: [self.h0] }.eval(&[alpha]);
            (g[0], slope[0])
        }

        fn g(&self, alpha: f64) -> f64 {
            self.eval(alpha).0
        }
    }

    /// A sign-change bracket `G(lo) ≤ 0 < G(hi)` of the entropy root, with
    /// `G` and `G′` at `hi`: a lane as it enters [`Phase::Newton`].
    #[derive(Clone, Copy)]
    struct Bracket {
        lo: f64,
        hi: f64,
        g_hi: f64,
        slope_hi: f64,
        noise: f64,
    }

    /// Outcome of the bracketing phases: an α decided by a guard, or a root
    /// left for Newton's method.
    enum Alpha<'a> {
        Done(f64),
        Root(CellGap<'a>, Bracket),
    }

    /// One lane of [`entropic_alpha`] run up to its Newton phase.
    fn bracket_alpha<'a>(f: &'a [f64; 9], delta: &'a [f64; 9]) -> Alpha<'a> {
        let gap = gap(f, delta);
        let mut lane = Lane::start(f, delta, gap.h0);
        loop {
            match lane.phase {
                Phase::Done => return Alpha::Done(lane.alpha),
                Phase::Newton(_) => {
                    let Lane { lo, hi, g, slope, noise, .. } = lane;
                    return Alpha::Root(gap, Bracket { lo, hi, g_hi: g, slope_hi: slope, noise });
                }
                _ => {
                    let (g, slope) = gap.eval(lane.alpha);
                    lane.take(g, slope);
                }
            }
        }
    }

    /// One lane of [`entropic_alpha`] run from its Newton phase on.
    fn newton_root(gap: &CellGap<'_>, bracket: Bracket) -> f64 {
        let Bracket { lo, hi, g_hi, slope_hi, noise } = bracket;
        let lane =
            Lane { phase: Phase::Newton(0), alpha: hi, lo, hi, g: g_hi, slope: slope_hi, noise };
        let (f, delta) = (gap.f.map(|v| [v]), gap.delta.map(|d| [d]));
        solve(&EntropyGap { f: &f, delta: &delta, h0: [gap.h0] }, [lane])[0]
    }

    /// The root solve `entropic_alpha` replaced: 50 bisections of the
    /// bracket, kept as the oracle for the Newton solve.
    fn bisection_root(gap: &CellGap<'_>, bracket: Bracket) -> f64 {
        let Bracket { mut lo, mut hi, .. } = bracket;
        for _ in 0..50 {
            let mid = 0.5 * (lo + hi);
            let gm = gap.g(mid);
            if !gm.is_finite() || gm > 0.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// [`entropic_alpha`] with the bisection oracle as its root solve.
    fn bisection_alpha(f: &[f64; 9], delta: &[f64; 9]) -> f64 {
        match bracket_alpha(f, delta) {
            Alpha::Done(alpha) => alpha,
            Alpha::Root(gap, bracket) => bisection_root(&gap, bracket),
        }
    }

    /// `Δ = f^eq(ρ, u) − f` for the moments of `f`.
    fn to_equilibrium(f: &[f64; 9]) -> [f64; 9] {
        let (rho, jx, jy) = moments(f);
        let eq = equilibrium(rho, jx / rho, jy / rho);
        std::array::from_fn(|i| eq[i] - f[i])
    }

    fn gap<'a>(f: &'a [f64; 9], delta: &'a [f64; 9]) -> CellGap<'a> {
        CellGap { f, delta, h0: h_function(f) }
    }

    /// The largest feasible α, `min fᵢ/(−Δᵢ)` over `Δᵢ < 0`.
    fn analytic_barrier(f: &[f64; 9], delta: &[f64; 9]) -> f64 {
        (0..9)
            .filter(|&i| delta[i] < 0.0)
            .map(|i| f[i] / -delta[i])
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn entropic_alpha_finds_a_root_above_two() {
        // Diagonals depleted by half into the rest population: H(f + 2Δ)
        // is still below H(f), so the bracket grows past 2.
        let mut f = equilibrium(1.0, 0.05, -0.02);
        for i in 5..9 {
            let m = 0.5 * f[i];
            f[i] -= m;
            f[0] += m;
        }
        let delta = to_equilibrium(&f);
        let g = gap(&f, &delta);
        assert!(g.g(2.0) < 0.0, "G(2) = {}", g.g(2.0));
        let alpha = entropic_alpha(&f, &delta);
        let noise = 1e-13 * g.h0.abs().max(1.0);
        assert!(alpha > 2.0 && alpha < analytic_barrier(&f, &delta), "alpha = {alpha}");
        assert!(g.g(alpha).abs() <= noise, "G(α) = {:e}", g.g(alpha));
        let oracle = bisection_alpha(&f, &delta);
        assert!((alpha - oracle).abs() <= noise / g.eval(alpha).1, "{alpha} vs {oracle}");
    }

    #[test]
    fn entropic_alpha_stops_at_the_barrier_before_two() {
        // 90 % of the rest population moved to the axis directions: at
        // α = 2 the overfull axis populations would go negative.
        let mut f = equilibrium(1.0, 0.05, -0.02);
        let m = 0.9 * f[0];
        f[0] -= m;
        for i in 1..5 {
            f[i] += m / 4.0;
        }
        let delta = to_equilibrium(&f);
        assert!(gap(&f, &delta).g(2.0).is_infinite());
        let alpha = entropic_alpha(&f, &delta);
        let barrier = analytic_barrier(&f, &delta);
        assert!(alpha > 1.0 && alpha < 2.0, "alpha = {alpha}");
        assert!((alpha - barrier).abs() <= 1e-12 * barrier, "{alpha} vs barrier {barrier}");
        assert!((0..9).all(|i| f[i] + alpha * delta[i] > 0.0));
        assert_eq!(alpha, bisection_alpha(&f, &delta));
    }

    #[test]
    fn entropic_alpha_stops_at_the_barrier_above_two() {
        // The populations of `entropic_alpha_respects_positivity`: the
        // expansion past 2 meets the barrier before the entropy root.
        let feq = equilibrium(1.0, 0.0, 0.0);
        let mut f = feq;
        f[1] = 0.02;
        f[3] += feq[1] - 0.02;
        let delta = to_equilibrium(&f);
        assert!(gap(&f, &delta).g(2.0) < 0.0);
        let alpha = entropic_alpha(&f, &delta);
        let barrier = analytic_barrier(&f, &delta);
        assert!(alpha > 2.0, "alpha = {alpha}");
        assert!((alpha - barrier).abs() <= 1e-12 * barrier, "{alpha} vs barrier {barrier}");
        assert_eq!(alpha, bisection_alpha(&f, &delta));
    }

    #[test]
    fn entropic_alpha_degenerate_bracket_gives_two() {
        // A Δ that overshoots the equilibrium 2.5-fold puts the root below
        // 1: G(1) > 0, so the bracket [1, 2] holds no sign change.
        let f = equilibrium(1.0, 0.1, 0.05);
        let mut g = f;
        g[1] *= 0.9;
        g[3] *= 1.1;
        let delta = to_equilibrium(&g).map(|d| -2.5 * d);
        let gp = gap(&f, &delta);
        assert!(gp.g(1.0) > 0.0, "G(1) = {:e}", gp.g(1.0));
        assert!(gp.g(2.0) > 1e-13 && gp.g(2.0).is_finite());
        assert_eq!(entropic_alpha(&f, &delta), 2.0);
    }

    #[test]
    fn newton_step_outside_the_bracket_bisects_instead() {
        // A slope far too flat at `hi` throws the first Newton step below
        // `lo`, as rounding can near the barrier: the solve must bisect
        // and still land on the root.
        let mut f = equilibrium(1.0, 0.05, -0.02);
        f[1] *= 0.7;
        f[3] *= 1.3;
        let delta = to_equilibrium(&f);
        let Alpha::Root(gap, bracket) = bracket_alpha(&f, &delta) else {
            panic!("expected a root bracket");
        };
        let noise = bracket.noise;
        let oracle = bisection_root(&gap, Bracket { ..bracket });
        let flat = Bracket { slope_hi: bracket.slope_hi * 1e-9, ..bracket };
        assert!(flat.hi - flat.g_hi / flat.slope_hi < flat.lo);
        let alpha = newton_root(&gap, flat);
        let (g_alpha, slope) = gap.eval(alpha);
        assert!(g_alpha.abs() <= noise, "G(α) = {g_alpha:e}");
        assert!((alpha - oracle).abs() <= noise / slope, "{alpha} vs {oracle}");
    }

    /// The phases one lane of [`entropic_alpha`] passes through, counts
    /// dropped, and the lane's α.
    fn trace(f: &[f64; 9], delta: &[f64; 9]) -> (Vec<Phase>, f64) {
        let gap = gap(f, delta);
        let mut lane = Lane::start(f, delta, gap.h0);
        let mut phases = vec![lane.phase];
        loop {
            lane.next();
            if lane.phase != Phase::Done {
                let (g, slope) = gap.eval(lane.alpha);
                lane.take(g, slope);
            }
            let kind = match lane.phase {
                Phase::Expand(_) => Phase::Expand(0),
                Phase::Barrier(_) => Phase::Barrier(0),
                Phase::Newton(_) => Phase::Newton(0),
                phase => phase,
            };
            if phases.last() != Some(&kind) {
                phases.push(kind);
            }
            if lane.phase == Phase::Done {
                return (phases, lane.alpha);
            }
        }
    }

    /// One cell for each way [`entropic_alpha`] can end, each checked to
    /// end that way: `(f, Δ)`.
    fn every_branch() -> Vec<([f64; 9], [f64; 9])> {
        let depleted = {
            // Diagonals depleted by half into the rest population.
            let mut f = equilibrium(1.0, 0.05, -0.02);
            for i in 5..9 {
                let m = 0.5 * f[i];
                f[i] -= m;
                f[0] += m;
            }
            f
        };
        let near = |eps: f64| {
            let feq = equilibrium(1.1, 0.04, -0.03);
            std::array::from_fn(|i| {
                feq[i] * (1.0 + eps * [0.3, -0.8, 0.5, 0.9, -0.2, -0.6, 0.7, 0.1, -0.4][i])
            })
        };
        let emptied_rest = {
            let mut f = equilibrium(1.0, 0.05, -0.02);
            let m = 0.9 * f[0];
            f[0] -= m;
            for i in 1..5 {
                f[i] += m / 4.0;
            }
            f
        };
        let starved_axis = {
            let feq = equilibrium(1.0, 0.0, 0.0);
            let mut f = feq;
            f[1] = 0.02;
            f[3] += feq[1] - 0.02;
            f
        };
        let degenerate = {
            let f = equilibrium(1.0, 0.1, 0.05);
            let mut g = f;
            g[1] *= 0.9;
            g[3] *= 1.1;
            (f, to_equilibrium(&g).map(|d| -2.5 * d))
        };
        let mut nan = near(0.05);
        nan[4] = f64::NAN;
        let eq = equilibrium(1.0, 0.03, -0.02);
        use std::cmp::Ordering::{Equal, Greater, Less};
        use Phase::{Barrier, Done, Expand, Newton, One, Two};
        let (expand, barrier, newton) = (Expand(0), Barrier(0), Newton(0));
        // The phases each cell passes through, and α against 2 (against
        // 2·1.25²⁰ at the 20-step cap, the one path from expanding straight
        // to done).
        let cases = [
            ("tiny Δ", eq, to_equilibrium(&eq), vec![Done], (Equal, 2.0)),
            (
                "G(2) within noise",
                near(1e-6),
                to_equilibrium(&near(1e-6)),
                vec![Two, Done],
                (Equal, 2.0),
            ),
            (
                "a root below 2",
                near(-0.05),
                to_equilibrium(&near(-0.05)),
                vec![Two, One, newton, Done],
                (Less, 2.0),
            ),
            (
                "expansion above 2",
                depleted,
                to_equilibrium(&depleted),
                vec![Two, expand, newton, Done],
                (Greater, 2.0),
            ),
            (
                "the barrier below 2",
                emptied_rest,
                to_equilibrium(&emptied_rest),
                vec![Two, barrier, Done],
                (Less, 2.0),
            ),
            (
                "the barrier above 2",
                starved_axis,
                to_equilibrium(&starved_axis),
                vec![Two, expand, barrier, Done],
                (Greater, 2.0),
            ),
            (
                "the 20-step cap",
                depleted,
                to_equilibrium(&depleted).map(|d| d / 200.0),
                vec![Two, expand, Done],
                (Equal, 2.0 * 1.25f64.powi(20)),
            ),
            (
                "a degenerate bracket",
                degenerate.0,
                degenerate.1,
                vec![Two, One, Done],
                (Equal, 2.0),
            ),
            ("NaN populations", nan, to_equilibrium(&near(0.05)), vec![Done], (Equal, 2.0)),
        ];
        cases
            .into_iter()
            .map(|(what, f, delta, path, (side, of))| {
                let (phases, alpha) = trace(&f, &delta);
                assert!(
                    phases == path && alpha.partial_cmp(&of) == Some(side),
                    "{what}: {phases:?}, α = {alpha}"
                );
                (f, delta)
            })
            .collect()
    }

    /// Cells near and far from equilibrium, as in the Newton-vs-bisection
    /// proptest, from a fixed LCG.
    fn random_cells(count: usize) -> Vec<([f64; 9], [f64; 9])> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut uniform = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..count)
            .map(|_| {
                let feq = equilibrium(
                    0.5 + 1.5 * uniform(),
                    0.6 * uniform() - 0.3,
                    0.6 * uniform() - 0.3,
                );
                let eps = 0.95 * 10f64.powf(-7.0 * uniform());
                let f: [f64; 9] =
                    std::array::from_fn(|i| feq[i] * (1.0 + eps * (2.0 * uniform() - 1.0)));
                (f, to_equilibrium(&f))
            })
            .collect()
    }

    #[test]
    fn every_isa_lanes_give_the_one_lane_alpha() {
        // Each way a solve ends in every lane position, beside the others:
        // group r holds cases r, r + 1, … (mod the case count). Then random
        // cells, eight at a time.
        let cases = every_branch();
        let m = cases.len();
        let rotations = (0..m).flat_map(|r| (0..LANES).map(move |k| (r + k) % m));
        let cells: Vec<_> = rotations.map(|k| cases[k]).chain(random_cells(512)).collect();
        assert_eq!(cells.len() % LANES, 0);
        for group in cells.chunks(LANES) {
            let f = std::array::from_fn(|i| std::array::from_fn(|l| group[l].0[i]));
            let delta = std::array::from_fn(|i| std::array::from_fn(|l| group[l].1[i]));
            let want: [u64; LANES] =
                std::array::from_fn(|l| entropic_alpha(&group[l].0, &group[l].1).to_bits());
            for isa in Isa::supported() {
                let got: [f64; LANES] = isa.run(
                    #[inline(always)]
                    || entropic_alphas(&f, &delta),
                );
                assert_eq!(got.map(f64::to_bits), want, "{isa:?}");
            }
        }
    }

    #[test]
    fn every_isa_collision_groups_match_one_cell_groups() {
        // 15² = 225 cells: 28 groups of eight and a ragged one. An
        // underresolved entropic run puts α off 2; then one cell is NaN, one
        // leaves the lattice range, and some hold the populations of
        // `every_branch` (the collision makes their Δ).
        let n = 15;
        let plane = n * n;
        let cfg = LbmConfig { n, nu: 2e-4, u0: 0.1, collision: Collision::Entropic };
        let (ux, uy) = IcSpec { k_min: 2, k_max: 6 }.generate(n, cfg.u0, 5);
        let mut lbm = Lbm::new(cfg.clone());
        lbm.set_velocity(&ux, &uy);
        lbm.run(30);
        let mut f = lbm.f.clone();
        let mut put =
            |idx: usize, cell: [f64; 9]| (0..9).for_each(|i| f[i * plane + idx] = cell[i]);
        put(17, [f64::NAN; 9]);
        put(100, std::array::from_fn(|i| if i == 1 { 1.0 } else { 0.0 }));
        for (k, (cell, _)) in every_branch().into_iter().enumerate() {
            put(40 + 3 * k, cell);
        }
        let force = BodyForce::kolmogorov(n, 1, 1e-5);
        let collided = |collision, force: Option<&BodyForce>, isa, one: bool| {
            let mut lbm = Lbm::new(LbmConfig { collision, ..cfg.clone() });
            if let Some(fc) = force {
                lbm.set_force(fc.clone());
            }
            lbm.f.copy_from_slice(&f);
            if one {
                lbm.collide::<1>(isa);
            } else {
                lbm.collide::<LANES>(isa);
            }
            lbm.f.into_iter().map(f64::to_bits).collect::<Vec<_>>()
        };
        let (entropic, bgk) = (Collision::Entropic, Collision::Bgk);
        for (collision, force) in [(entropic, None), (entropic, Some(&force)), (bgk, None)] {
            let want = collided(collision, force, Isa::Base, true);
            assert!(f64::from_bits(want[17]).is_nan() && f64::from_bits(want[100]).is_nan());
            for isa in Isa::supported() {
                let got = collided(collision, force, isa, false);
                assert!(got == want, "{isa:?}, {collision:?}");
            }
        }
        // α departs from 2 in many cells, so the entropic solve is exercised.
        let entropic = collided(entropic, None, Isa::Base, true);
        let bgk = collided(bgk, None, Isa::Base, true);
        let moved = (0..plane).filter(|&idx| entropic[idx] != bgk[idx]).count();
        assert!(moved > plane / 4, "α ≠ 2 in {moved} of {plane} cells");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// Random `ρ`, `u` and populations perturbed by a relative
        /// `ε ∈ [1e-7, 0.95]`, log-uniform, so near- and far-from-
        /// equilibrium cells both occur (the far ones reach the barrier).
        #[test]
        fn newton_alpha_matches_the_bisection_oracle(
            rho in 0.5f64..2.0,
            ux in -0.3f64..0.3,
            uy in -0.3f64..0.3,
            log_eps in -7.0f64..0.0,
            r in proptest::collection::vec(-1.0f64..1.0, 9usize),
        ) {
            let eps = 0.95 * 10f64.powf(log_eps);
            let feq = equilibrium(rho, ux, uy);
            let f: [f64; 9] = std::array::from_fn(|i| feq[i] * (1.0 + eps * r[i]));
            let delta = to_equilibrium(&f);
            let alpha = entropic_alpha(&f, &delta);
            let oracle = bisection_alpha(&f, &delta);
            proptest::prop_assert!((0..9).all(|i| f[i] + alpha * delta[i] > 0.0), "alpha {alpha}");
            match bracket_alpha(&f, &delta) {
                Alpha::Done(a) => {
                    // Guards are shared with the oracle: same bits. Apart
                    // from BGK, a guard only returns the barrier.
                    proptest::prop_assert_eq!(alpha.to_bits(), a.to_bits());
                    proptest::prop_assert_eq!(alpha.to_bits(), oracle.to_bits());
                    let past = alpha * (1.0 + 1e-9);
                    proptest::prop_assert!(alpha == 2.0 || gap(&f, &delta).g(past).is_infinite());
                }
                Alpha::Root(g, bracket) => {
                    let (g_alpha, slope) = g.eval(alpha);
                    proptest::prop_assert!(alpha >= bracket.lo && alpha <= bracket.hi);
                    proptest::prop_assert!(g_alpha.abs() <= bracket.noise, "G(α) = {g_alpha:e}");
                    proptest::prop_assert!(
                        (alpha - oracle).abs() <= bracket.noise / slope,
                        "newton {alpha} vs bisection {oracle}, bound {:e}",
                        bracket.noise / slope
                    );
                }
            }
        }
    }

    #[test]
    fn decaying_turbulence_loses_enstrophy() {
        let cfg = LbmConfig::with_reynolds(48, 1000.0);
        let mut lbm = Lbm::new(cfg);
        let spec = IcSpec::default();
        let (ux, uy) = spec.generate(48, 0.05, 7);
        lbm.set_velocity(&ux, &uy);
        let enst = |l: &Lbm| {
            let (ux, uy) = l.velocity();
            let w = vorticity(&ux, &uy);
            w.data().iter().map(|v| v * v).sum::<f64>()
        };
        lbm.run(20); // let initialization transients settle
        let z0 = enst(&lbm);
        lbm.run(400);
        let z1 = enst(&lbm);
        assert!(z1 < z0, "enstrophy must decay: {z0} -> {z1}");
        assert!(z1 > 0.0);
    }

    #[test]
    fn streaming_is_exact_translation() {
        // With collision disabled (ν → ∞ isn't expressible; instead check one
        // stream step directly): initialize a delta bump in plane 1 (c=(1,0))
        // and verify it moves one cell in +x.
        let cfg = LbmConfig { n: 8, nu: 0.05, u0: 0.05, collision: Collision::Bgk };
        let mut lbm = Lbm::new(cfg);
        let plane = 64;
        lbm.f[plane + (3 * 8 + 2)] += 0.5; // plane 1, y=3, x=2
        lbm.stream();
        assert!((lbm.f[plane + (3 * 8 + 3)] - (D2Q9::W[1] + 0.5)).abs() < 1e-15);
        assert!((lbm.f[plane + (3 * 8 + 2)] - D2Q9::W[1]).abs() < 1e-15);
    }

    #[test]
    fn config_derived_quantities() {
        let cfg = LbmConfig::with_reynolds(256, 7500.0);
        assert!((cfg.reynolds() - 7500.0).abs() < 1e-9);
        assert!((cfg.t_c() - 256.0 / 0.05).abs() < 1e-12);
        let omega = cfg.omega();
        assert!(omega > 0.0 && omega < 2.0);
    }

    #[test]
    fn uniform_force_accelerates_linearly() {
        use crate::force::BodyForce;
        let n = 16;
        let g = 1e-6;
        let cfg = LbmConfig { n, nu: 0.02, u0: 0.05, collision: Collision::Bgk };
        let mut lbm = Lbm::new(cfg);
        lbm.set_force(BodyForce::uniform(n, g, 0.0));
        let steps = 200;
        lbm.run(steps);
        let (ux, uy) = lbm.velocity();
        // With no walls the whole fluid accelerates: the momentum after t
        // steps is g·t and the Guo physical velocity adds the half-force
        // shift, so u = g·(t + ½) exactly.
        let expect = g * (steps as f64 + 0.5);
        assert!(
            (ux.mean() - expect).abs() < 1e-9 * expect,
            "mean ux {} vs {expect}",
            ux.mean()
        );
        assert!(uy.mean().abs() < 1e-15);
    }

    #[test]
    fn kolmogorov_forcing_reaches_laminar_balance() {
        use crate::force::BodyForce;
        let n = 32;
        let nu = 0.05;
        let amp = 1e-6;
        let k = 1usize;
        let cfg = LbmConfig { n, nu, u0: 0.05, collision: Collision::Bgk };
        let mut lbm = Lbm::new(cfg);
        lbm.set_force(BodyForce::kolmogorov(n, k, amp));
        // Laminar balance: ν k² u = F  →  u_x(y) = A sin(ky)/(ν k²).
        let kf = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
        let tau = 1.0 / (nu * kf * kf);
        lbm.run((10.0 * tau) as usize);
        let (ux, _) = lbm.velocity();
        let expect = Tensor::from_fn(&[n, n], |i| amp * tau * (kf * i[0] as f64).sin());
        let err = ux.sub(&expect).norm_l2() / expect.norm_l2();
        assert!(err < 0.02, "Kolmogorov profile error {err}");
    }
}
