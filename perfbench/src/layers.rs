//! Standalone probes of single layers, each timed through the layer's own
//! public entry point on the workload's own shape and operator.

use std::path::PathBuf;

use blast_repro::blast_core::{AssemblyMode, CheckpointStore};
use blast_repro::blast_core::{Executor, Hydro, HydroState, Problem};
use blast_repro::blast_fem::geom::{eval_h1_vector, zone_jacobians};
use blast_repro::blast_fem::mass::assemble_kinematic_mass;
use blast_repro::blast_fem::{quad_points_1d, BasisTable, TensorRule};
use blast_repro::blast_kernels::base::{compute_az_pipeline_into, PipelineScratch};
use blast_repro::blast_kernels::k2::ZoneConstants;
use blast_repro::blast_kernels::k7::FzKernel;
use blast_repro::blast_kernels::sumfac::{SumfacFactors, SumfacForceKernel, SumfacMassKernel};
use blast_repro::blast_kernels::ProblemShape;
use blast_repro::blast_la::pcg::{
    pcg_solve_ws, DiagPrecond, LinearOperator, PcgOptions, PcgWorkspace,
};
use blast_repro::blast_la::tile::{self, Op};
use blast_repro::blast_la::BatchedMats;
use blast_repro::blast_la::{abft, AbftMode};
use blast_repro::blast_telemetry::{chrome, Telemetry, Track};
use blast_repro::powermon::PowerTrace;

use crate::report::RunReport;
use crate::stats::{median, timed};
use crate::trace::Tracer;
use crate::RunOptions;

/// Repeats of each probe; the median is reported.
const REPEATS: usize = 7;

/// Per-layer figures from the standalone probes.
#[derive(Clone, Debug, Default)]
pub struct LayerMetrics {
    /// `assemble_kinematic_mass` wall ms.
    pub kin_mass_assembly_ms: f64,
    /// `pcg_solve_ws` wall ms on the workload's own mass operator.
    pub pcg_solve_ms: f64,
    /// Iterations of that solve.
    pub pcg_iters: f64,
    /// `tile::gemm` GFLOP/s at the workload's corner-force shape.
    pub gemm_gflops: f64,
    /// `abft::gemm_checked` (verifying) over `tile::gemm`, percent.
    pub abft_overhead_pct: f64,
    /// The corner-force kernels on the workload's state: kernels 1-7
    /// (`compute_az_pipeline_into` + `FzKernel`) when stored, the
    /// sum-factorized force kernel when matrix-free. Wall ms.
    pub corner_force_ms: f64,
    /// Probe results that were wrong.
    pub problems: Vec<String>,
}

impl LayerMetrics {
    /// Appends the probe metrics (and any failed probe check) to `report`.
    pub fn push_into(&self, report: &mut RunReport) {
        report.push("fem.kin_mass_assembly_ms", "ms", self.kin_mass_assembly_ms);
        report.push("la.pcg_solve_ms", "ms", self.pcg_solve_ms);
        report.push("la.pcg_iters", "count", self.pcg_iters);
        report.push("la.gemm_gflops", "GFLOP/s", self.gemm_gflops);
        report.push("la.abft_overhead_pct", "%", self.abft_overhead_pct);
        report.push("kernels.corner_force_ms", "ms", self.corner_force_ms);
        for p in &self.problems {
            report.check(false, || p.clone());
        }
    }
}

/// The frozen `rho0 |J0|` at every `(zone, point)`, as the solver builds it.
fn rho0_detj0<const D: usize>(
    problem: &dyn Problem<D>,
    hydro: &Hydro<D>,
    rule: &TensorRule<D>,
) -> Vec<f64> {
    let kin = hydro.kin_space();
    let table = kin.basis().tabulate(&rule.points);
    let x0 = kin.initial_coords();
    let npts = rule.len();
    let nz = kin.mesh().num_zones();
    let mut out = vec![0.0; nz * npts];
    let (mut geom, mut pos) = (Vec::new(), Vec::new());
    for z in 0..nz {
        zone_jacobians(kin, &table, &x0, z, &mut geom);
        eval_h1_vector(kin, &table, &x0, z, &mut pos);
        for k in 0..npts {
            out[z * npts + k] = problem.rho0(&pos[k]) * geom[k].det;
        }
    }
    out
}

/// The sum-factorized kinematic mass apply, as a PCG operator.
struct MatFreeMass<'a> {
    shape: &'a ProblemShape,
    factors: &'a SumfacFactors,
    svals: &'a [f64],
    zone_dofs: &'a [usize],
    n: usize,
    local: Vec<f64>,
}

impl LinearOperator for MatFreeMass<'_> {
    fn dim(&self) -> usize {
        self.n
    }
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        SumfacMassKernel.compute_with(
            self.shape,
            self.factors,
            self.svals,
            self.zone_dofs,
            self.n,
            x,
            y,
            &mut self.local,
        );
    }
}

/// Solves `M x = M u` for a known `u` `REPEATS` times; returns the median
/// wall ms and the iterations, and checks the solution.
fn time_pcg<O: LinearOperator>(
    op: &mut O,
    precond: &DiagPrecond,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> (f64, f64) {
    let n = op.dim();
    let u: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.5 * (i as f64 * 0.37).sin())
        .collect();
    let mut b = vec![0.0; n];
    op.apply(&u, &mut b);
    let opts = PcgOptions::default();
    let mut ws = PcgWorkspace::new();
    let mut times = Vec::new();
    let mut iters = 0;
    let mut x = vec![0.0; n];
    for _ in 0..REPEATS {
        x.iter_mut().for_each(|v| *v = 0.0);
        let (res, secs) = tracer.span("blast_la::pcg_solve_ws", |_| {
            pcg_solve_ws(op, precond, &b, &mut x, &opts, &mut ws)
        });
        times.push(1e3 * secs);
        iters = res.iterations;
        if !res.converged {
            problems.push("PCG probe did not converge".into());
        }
    }
    let err = x
        .iter()
        .zip(&u)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if err > 1e-8 {
        problems.push(format!("PCG probe solution off by {err:.3e}"));
    }
    (median(&times), iters as f64)
}

/// One sweep of the corner-force GEMM `F_z = A_z B^T` over every zone at
/// the workload's shape (`m` velocity dofs, `n` thermodynamic basis
/// functions, `k` quadrature points per zone).
fn gemm_sweep(shape: &ProblemShape, a: &[f64], b: &[f64], c: &mut [f64], checked: bool) {
    let (m, n, k) = (shape.nvdof(), shape.nthermo, shape.npts);
    for z in 0..shape.zones {
        let az = &a[z * m * k..(z + 1) * m * k];
        let cz = &mut c[z * m * n..(z + 1) * m * n];
        if checked {
            abft::gemm_checked(m, n, k, 1.0, az, Op::N, b, Op::T, 0.0, cz);
        } else {
            tile::gemm(m, n, k, 1.0, az, Op::N, b, Op::T, 0.0, cz);
        }
    }
    std::hint::black_box(c);
}

/// Per-zone constants as the solver derives them from the problem: the
/// adiabatic index at the zone centre, the initial length scale and the
/// diagonal of the (axis-aligned) initial Jacobian's inverse.
fn zone_constants<const D: usize>(problem: &dyn Problem<D>, hydro: &Hydro<D>) -> ZoneConstants {
    let mesh = hydro.kin_space().mesh();
    let nz = mesh.num_zones();
    let h = mesh.zone_size();
    let h_min = h.iter().cloned().fold(f64::INFINITY, f64::min);
    ZoneConstants {
        gamma: (0..nz)
            .map(|z| problem.gamma(&mesh.zone_center(z)))
            .collect(),
        h0: vec![h_min / hydro.kin_space().order() as f64; nz],
        j0inv_diag: (0..nz).flat_map(|_| h.map(|hd| 1.0 / hd)).collect(),
    }
}

/// Times the corner-force kernels `REPEATS` times on `state`.
fn time_corner_force<const D: usize>(
    problem: &dyn Problem<D>,
    hydro: &Hydro<D>,
    state: &HydroState,
    rule: &TensorRule<D>,
    kin_table: &BasisTable<D>,
    zone_dofs: &[usize],
    rho: &[f64],
    tracer: &mut Tracer,
) -> f64 {
    let shape = *hydro.shape();
    let n = hydro.kin_space().num_dofs();
    let thermo_table = hydro.thermo_space().basis().tabulate(&rule.points);
    let consts = zone_constants(problem, hydro);
    let visc = problem.use_viscosity();
    let mut times = Vec::new();
    match hydro.assembly_mode() {
        AssemblyMode::Stored => {
            let mut ws = PipelineScratch::new();
            let mut fz = BatchedMats::empty();
            for _ in 0..REPEATS {
                let (_, secs) = tracer.span("blast_kernels::corner_force", |_| {
                    compute_az_pipeline_into(
                        &shape,
                        &state.x,
                        &state.v,
                        &state.e,
                        n,
                        zone_dofs,
                        &kin_table.grads,
                        &thermo_table.values,
                        &rule.weights,
                        rho,
                        &consts,
                        visc,
                        &mut ws,
                    );
                    fz.ensure(shape.nvdof(), shape.nthermo, shape.zones);
                    FzKernel::compute(&shape, &ws.az, &thermo_table.values, &mut fz);
                });
                times.push(1e3 * secs);
            }
        }
        AssemblyMode::MatrixFree => {
            let factors = SumfacFactors::for_shape(&shape);
            let total = shape.total_points();
            let mut dsf = BatchedMats::zeros(D, D, total);
            let (mut detj, mut inv_dt) = (vec![0.0; total], vec![0.0; total]);
            let kernel = SumfacForceKernel {
                use_viscosity: visc,
            };
            for _ in 0..REPEATS {
                let (_, secs) = tracer.span("blast_kernels::sumfac_force", |_| {
                    kernel.compute(
                        &shape,
                        &factors,
                        &state.x,
                        &state.v,
                        &state.e,
                        n,
                        zone_dofs,
                        &rule.weights,
                        rho,
                        &consts,
                        &mut dsf,
                        &mut detj,
                        &mut inv_dt,
                    );
                });
                times.push(1e3 * secs);
            }
        }
    }
    median(&times)
}

/// Runs every standalone probe on `hydro`'s shape and operator, with the
/// corner force evaluated on `state`.
pub fn probe<const D: usize>(
    problem: &dyn Problem<D>,
    hydro: &Hydro<D>,
    state: &HydroState,
    tracer: &mut Tracer,
) -> LayerMetrics {
    let mut out = LayerMetrics::default();
    let kin = hydro.kin_space();
    let shape = *hydro.shape();
    let rule = TensorRule::<D>::gauss(quad_points_1d(kin.order()));
    let table = kin.basis().tabulate(&rule.points);
    let rho = rho0_detj0(problem, hydro, &rule);
    let zone_dofs: Vec<usize> = (0..shape.zones)
        .flat_map(|z| kin.zone_dofs(z).iter().copied())
        .collect();

    let mut assembly_ms = Vec::new();
    let mut mv = None;
    for _ in 0..REPEATS {
        let (m, secs) = tracer.span("blast_fem::assemble_kinematic_mass", |_| {
            assemble_kinematic_mass(kin, &rule, &table, &rho)
        });
        assembly_ms.push(1e3 * secs);
        mv = Some(m);
    }
    out.kin_mass_assembly_ms = median(&assembly_ms);
    let mv = mv.expect("REPEATS > 0");

    (out.pcg_solve_ms, out.pcg_iters) = match hydro.assembly_mode() {
        AssemblyMode::Stored => {
            let precond = DiagPrecond::from_diagonal(&mv.diagonal());
            let mut op = &mv;
            time_pcg(&mut op, &precond, tracer, &mut out.problems)
        }
        AssemblyMode::MatrixFree => {
            let n = kin.num_dofs();
            let npts = rule.len();
            let factors = SumfacFactors::for_shape(&shape);
            let svals: Vec<f64> = rho
                .iter()
                .enumerate()
                .map(|(p, r)| rule.weights[p % npts] * r)
                .collect();
            let diag = SumfacMassKernel.diagonal(&shape, &factors, &svals, &zone_dofs, n);
            let precond = DiagPrecond::from_diagonal(&diag);
            let mut op = MatFreeMass {
                shape: &shape,
                factors: &factors,
                svals: &svals,
                zone_dofs: &zone_dofs,
                n,
                local: Vec::new(),
            };
            time_pcg(&mut op, &precond, tracer, &mut out.problems)
        }
    };

    // Corner-force GEMM at the workload's Table-3 shape, plain and with
    // the ABFT checksums verified, interleaved.
    let (m, n, k) = (shape.nvdof(), shape.nthermo, shape.npts);
    let a: Vec<f64> = (0..shape.zones * m * k)
        .map(|i| ((i % 97) as f64 - 48.0) / 97.0)
        .collect();
    let b: Vec<f64> = (0..n * k).map(|i| ((i % 31) as f64 + 1.0) / 31.0).collect();
    let mut c = vec![0.0; shape.zones * m * n];
    let flops = 2.0 * (m * n * k * shape.zones) as f64;
    let sweeps = ((2e8 / flops).ceil() as usize).max(1);
    let prior = abft::mode();
    let (mut plain, mut checked) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        abft::set_mode(AbftMode::Off);
        let (_, s) = tracer.span("blast_la::tile::gemm", |_| {
            (0..sweeps).for_each(|_| gemm_sweep(&shape, &a, &b, &mut c, false))
        });
        plain.push(s);
        abft::set_mode(AbftMode::Verify);
        let (_, s) = tracer.span("blast_la::abft::gemm_checked", |_| {
            (0..sweeps).for_each(|_| gemm_sweep(&shape, &a, &b, &mut c, true))
        });
        checked.push(s);
    }
    abft::set_mode(prior);
    // The verified sweeps leave checksum flops and verification counts
    // in the process-global ABFT ledger; drain them so no later audit
    // bills them.
    let _ = abft::take_verify_flops();
    if abft::take_violation().is_some() {
        out.problems.push("ABFT flagged a clean GEMM".into());
    }
    out.gemm_gflops = flops * sweeps as f64 / median(&plain) / 1e9;
    out.corner_force_ms = time_corner_force(
        problem, hydro, state, &rule, &table, &zone_dofs, &rho, tracer,
    );
    out.abft_overhead_pct = 100.0 * (median(&checked) / median(&plain) - 1.0);
    out
}

/// Times `REPEATS` checkpoints of `state` (`Hydro::make_checkpoint` +
/// `CheckpointStore::write`, in memory); returns wall seconds and bytes.
pub fn checkpoint_writes<const D: usize>(
    hydro: &Hydro<D>,
    state: &HydroState,
    tracer: &mut Tracer,
) -> (Vec<f64>, usize) {
    let mut store = CheckpointStore::in_memory();
    let mut secs = Vec::new();
    let mut bytes = 0;
    for i in 0..REPEATS {
        let (w, s) = tracer.span("Hydro::make_checkpoint+CheckpointStore::write", |_| {
            let ck = hydro.make_checkpoint(state, 1e-3, i as u64, 0);
            store.write(&ck)
        });
        bytes = w.expect("in-memory checkpoint writes do not fail");
        secs.push(s);
    }
    (secs, bytes)
}

/// Where the traced run writes its span files.
fn trace_paths(opts: &RunOptions) -> (PathBuf, PathBuf) {
    let stem = format!("{}-seed{}", opts.workload, opts.seed);
    (
        opts.out_dir.join(format!("{stem}.program.json")),
        opts.out_dir.join(format!("{stem}.bench.json")),
    )
}

/// Writes the program's own Chrome trace (modeled spans plus the given
/// power lanes) and the benchmark's real-time spans side by side; returns
/// the wall ms of the program's export.
pub fn export_traces(
    opts: &RunOptions,
    tel: &Telemetry,
    power: &[(Track, &PowerTrace)],
    tracer: &Tracer,
) -> f64 {
    let (json, secs) = timed(|| chrome::chrome_trace_with_power(tel, power));
    let (program, bench) = trace_paths(opts);
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|_| std::fs::write(&program, json))
        .and_then(|_| tracer.write(&bench));
    if let Err(e) = written {
        eprintln!("could not write traces to {}: {e}", opts.out_dir.display());
    }
    1e3 * secs
}

/// The host and (when present) GPU power traces of `exec`.
pub fn power_lanes(exec: &Executor) -> Vec<(Track, PowerTrace)> {
    let mut lanes = vec![(Track::Host, exec.host.power_trace())];
    if let Some(g) = &exec.gpu {
        lanes.push((Track::Gpu, g.power_trace()));
    }
    lanes
}
