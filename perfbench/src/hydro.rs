//! The three solver workloads: whole rounds of accepted steps on a fresh
//! solver, timed call by call through the program's public API.
//!
//! A round builds a solver (`Hydro::builder().build()`), then drives
//! `Hydro::try_advance` until a fixed number of accepted steps, writing
//! checkpoints (`Hydro::write_checkpoint`) and rolling back
//! (`Hydro::rollback_to_latest`) exactly as `Hydro::run` does. Every
//! round does the same work, so its modeled time, modeled energy and
//! counts repeat bit for bit; the run checks that they do.

use std::collections::HashMap;

use blast_repro::blast_core::{
    AssemblyMode, AuditConfig, Checkpoint, CheckpointStore, ExecMode, Hydro, HydroError,
    HydroState, Problem, Sedov, TriplePoint, ENERGY_RECONCILE_TOL, MAX_STEP_REDOS,
};
use blast_repro::blast_la::{abft, AbftMode};
use blast_repro::blast_telemetry::names::counters;
use blast_repro::gpu_sim::{derive_fault, DeviceCatalog, SdcFault, SdcPlan, SdcSite};

use crate::layers;
use crate::report::RunReport;
use crate::stats::{digest, median, peak_rss_mib, percentile};
use crate::trace::Tracer;
use crate::RunOptions;

/// Which solver workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 3D Sedov, Q2-Q1, 8^3 zones, serial CPU, stored assembly.
    SedovStored,
    /// The same problem with matrix-free (sum-factorized) operators.
    SedovMatfree,
    /// 2D triple point, Q3-Q2, 28x12 zones, hybrid CPU+GPU, with ABFT,
    /// auditing, checkpoints and seeded transient bit flips.
    TriplePoint,
}

/// Accepted steps per round. Sized so that a round is a few seconds and
/// every run holds several whole rounds.
pub fn steps_per_round(kind: Kind) -> usize {
    match kind {
        // Sedov's adaptive dt overshoots the CFL bound and is redone on
        // every fifth step; whole periods keep every round alike.
        Kind::SedovStored | Kind::SedovMatfree => 10,
        Kind::TriplePoint => 48,
    }
}

/// Solver builds before the first round: at least `SETUP_BUILDS`, and
/// more until `SETUP_SECONDS` of building, so a cheap build gets enough
/// samples for a steady median. Their median, with the rounds' own
/// builds, is `setup_s`.
const SETUP_BUILDS: usize = 5;
const SETUP_SECONDS: f64 = 0.5;

/// Triple-point audit cadence (accepted steps between audits).
const AUDIT_EVERY: u64 = 4;
/// Triple-point checkpoint cadence (accepted steps between generations).
const CKPT_EVERY: usize = 10;

/// The triple point's planned transient flips: `(site, step-attempt
/// ordinal)`, each at a fixed attempt so every run does the same recovery
/// work.
///
/// The GEMM-panel flip is caught by the ABFT checksums inside the step
/// and costs one same-dt redo whatever bit and element it hits, so the
/// workload seed picks those. The host-state and device-buffer flips land
/// between audits: they are committed, caught by the next cadence audit,
/// redone in place until the redo budget drains and then rolled back to
/// the newest checkpoint. How much of that work a flip causes, and
/// whether the auditor sees it at all, depends on the bit and element
/// (see `CHANGES.md`), so those two are derived from a fixed seed that
/// exercises the full detect, redo and roll back path.
const FLIPS: [(SdcSite, u64); 3] = [
    (SdcSite::GemmPanel, 6),
    (SdcSite::HostState, 18),
    (SdcSite::DeviceBuffer, 31),
];

/// Seed of the bit and element of the flips whose cost depends on them.
const FIXED_FLIP_SEED: u64 = 1;

/// One solver workload, fully specified.
pub struct Case<const D: usize> {
    /// Which workload.
    pub kind: Kind,
    /// The problem definition.
    pub problem: Box<dyn Problem<D>>,
    /// Zones per axis.
    pub zones: [usize; D],
    /// Kinematic order.
    pub order: usize,
    /// Catalog device id.
    pub device: &'static str,
    /// Execution mode on that device.
    pub mode: ExecMode,
    /// Operator realization.
    pub assembly: AssemblyMode,
    /// Auditor, when on.
    pub audit: Option<AuditConfig>,
    /// Checkpoint cadence, when on.
    pub ckpt_every: Option<usize>,
    /// Planned bit flips (empty for a fault-free workload).
    pub flips: Vec<SdcFault>,
    /// Accepted steps per round.
    pub steps: usize,
    /// Steps taken once, before the rounds, whose end state every round
    /// starts from (0 = rounds start from the initial state).
    pub start_steps: usize,
}

impl<const D: usize> Case<D> {
    /// Total zones.
    pub fn num_zones(&self) -> usize {
        self.zones.iter().product()
    }

    /// Builds a fresh solver; `faults` arms the planned flips.
    pub fn build(&self, faults: bool) -> Result<Hydro<D>, HydroError> {
        let mut b = Hydro::<D>::builder(self.problem.as_ref(), self.zones)
            .order(self.order)
            .device(&DeviceCatalog::get(self.device))
            .mode(self.mode.clone())
            .assembly(self.assembly);
        if let Some(a) = self.audit {
            b = b.audit(a);
        }
        if faults && !self.flips.is_empty() {
            let mut plan = SdcPlan::seeded(0);
            for f in &self.flips {
                plan.arm(*f);
            }
            b = b.sdc_plan(plan);
        }
        b.build()
    }
}

/// The 3D Sedov workload.
pub fn sedov_case(assembly: AssemblyMode) -> Case<3> {
    Case {
        kind: if assembly.is_matrix_free() {
            Kind::SedovMatfree
        } else {
            Kind::SedovStored
        },
        problem: Box::new(Sedov::default()),
        zones: [8, 8, 8],
        order: 2,
        device: "cpu-e5-2670",
        mode: ExecMode::CpuSerial,
        assembly,
        audit: None,
        ckpt_every: None,
        flips: Vec::new(),
        steps: steps_per_round(Kind::SedovStored),
        // The first steps of a blast are its start-up transient (a cold
        // PCG warm start and a CFL redo): rounds start after it, so a
        // short round times the steady steps a long run is made of.
        start_steps: 4,
    }
}

/// The resilient hybrid triple-point workload; `seed` picks the flipped
/// bits and elements.
pub fn triple_point_case(seed: u64) -> Case<2> {
    Case {
        kind: Kind::TriplePoint,
        problem: Box::new(TriplePoint::default()),
        zones: [28, 12],
        order: 3,
        device: "k20",
        mode: ExecMode::Hybrid { threads: 1 },
        assembly: AssemblyMode::Stored,
        audit: Some(AuditConfig::default().every_steps(AUDIT_EVERY)),
        ckpt_every: Some(CKPT_EVERY),
        flips: FLIPS
            .iter()
            .enumerate()
            .map(|(i, &(site, at))| {
                let s = if site == SdcSite::GemmPanel {
                    seed
                } else {
                    FIXED_FLIP_SEED
                };
                derive_fault(s, site, at, i as u64, false)
            })
            .collect(),
        steps: steps_per_round(Kind::TriplePoint),
        start_steps: 0,
    }
}

/// The program's own deterministic accounting of one round.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// Simulated host-timeline seconds.
    pub host_s: f64,
    /// Modeled host joules.
    pub host_j: f64,
    /// Modeled GPU joules.
    pub gpu_j: f64,
    /// Host phase totals `(name, seconds)` from `phase_profile()`.
    pub phases: Vec<(&'static str, f64)>,
    /// Simulated GPU kernel launches.
    pub launches: u64,
    /// Modeled GPU DRAM bytes.
    pub dram_bytes: u64,
    /// Audits run.
    pub audits: u64,
    /// Corruptions detected.
    pub detected: u64,
    /// Flips that landed.
    pub flips: u64,
    /// Hybrid balancer's GPU zone share (0 off hybrid).
    pub gpu_share: f64,
    /// Step computations (accepted, redone and replayed).
    pub computations: u64,
    /// CG iterations over the accepted steps.
    pub cg_iters: u64,
    /// Checkpoint generations written, and their total bytes.
    pub ckpts: u64,
    /// Bytes of those checkpoints.
    pub ckpt_bytes: u64,
    /// Checkpoint rollbacks taken.
    pub restores: u64,
    /// Digest of the final state.
    pub state_digest: u64,
}

impl Model {
    /// Digest over every field, so two rounds compare bit for bit.
    pub fn fingerprint(&self) -> u64 {
        let counts = [
            self.launches,
            self.dram_bytes,
            self.audits,
            self.detected,
            self.flips,
            self.computations,
            self.cg_iters,
            self.ckpts,
            self.ckpt_bytes,
            self.restores,
            self.state_digest,
        ]
        .map(f64::from_bits);
        let phases: Vec<f64> = self.phases.iter().map(|p| p.1).collect();
        digest(
            [self.host_s, self.host_j, self.gpu_j, self.gpu_share]
                .iter()
                .chain(&counts)
                .chain(&phases),
        )
    }

    /// Total modeled seconds of host phases whose name starts with `prefix`.
    pub fn phase_s(&self, prefix: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.0.starts_with(prefix))
            .fold(0.0, |a, p| a + p.1)
    }
}

/// What one round measured.
pub struct Round {
    /// Wall seconds of the solver build.
    pub build_s: f64,
    /// Wall seconds per accepted step: the `try_advance` call, plus the
    /// checkpoint write it triggered, plus any failed attempt and
    /// rollback that preceded it.
    pub step_s: Vec<f64>,
    /// Wall seconds of each checkpoint write.
    pub ckpt_write_s: Vec<f64>,
    /// Wall seconds of build plus stepping.
    pub wall_s: f64,
    /// The modeled accounting.
    pub model: Model,
    /// The final state.
    pub state: HydroState,
    /// An error that ended the round early.
    pub error: Option<String>,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

/// Runs one round on a fresh solver and hands the solver back (for the
/// traced run's exports); callers drop it before the next round so only
/// one solver is resident at a time.
pub fn run_round<const D: usize>(
    case: &Case<D>,
    start: Option<&Checkpoint>,
    faults: bool,
    tracer: &mut Tracer,
) -> (Round, Option<Hydro<D>>) {
    tracer
        .span("round", |t| round_body(case, start, faults, t))
        .0
}

/// Advances a fresh solver through the case's start-up steps and
/// snapshots the result; `None` when rounds start from the initial state.
pub fn start_checkpoint<const D: usize>(case: &Case<D>) -> Result<Option<Checkpoint>, String> {
    if case.start_steps == 0 {
        return Ok(None);
    }
    let mut hydro = case.build(false).map_err(|e| e.to_string())?;
    let mut state = hydro.initial_state();
    let mut dt = hydro.try_suggest_dt(&state).map_err(|e| e.to_string())?;
    let mut retries = 0;
    for _ in 0..case.start_steps {
        let adv = hydro
            .try_advance(&mut state, dt)
            .map_err(|e| e.to_string())?;
        dt = adv.dt_next;
        retries += adv.redos;
    }
    Ok(Some(hydro.make_checkpoint(
        &state,
        dt,
        case.start_steps as u64,
        retries as u64,
    )))
}

fn round_body<const D: usize>(
    case: &Case<D>,
    start: Option<&Checkpoint>,
    faults: bool,
    tracer: &mut Tracer,
) -> (Round, Option<Hydro<D>>) {
    // The ABFT checksum flops are counted in a process-global ledger that
    // the next audit bills; flops left over from the previous solver would
    // be billed to this one. Start every round from an empty ledger.
    let _ = abft::take_verify_flops();
    let (built, build_s) = tracer.span("Hydro::build", |_| case.build(faults));
    let mut hydro = match built {
        Ok(h) => h,
        Err(e) => {
            let round = Round {
                build_s,
                step_s: Vec::new(),
                ckpt_write_s: Vec::new(),
                wall_s: build_s,
                model: Model::default(),
                state: HydroState::zeros(0, 0),
                error: Some(format!("build failed: {e}")),
                problems: Vec::new(),
            };
            return (round, None);
        }
    };
    hydro.reserve_host_telemetry(4 * case.steps);
    let mut state = hydro.initial_state();
    let mut store = CheckpointStore::in_memory();
    let mut step_s = Vec::with_capacity(2 * case.steps);
    let mut ckpt_write_s = Vec::new();
    let mut ckpt_bytes = 0u64;
    let mut ckpts = 0u64;
    let mut restores = 0u64;
    let mut cg_iters = 0u64;
    let mut error = None;

    if let Some(ck) = start {
        hydro.restore_checkpoint(ck, &mut state);
    }
    let (dt0, dt_s) = tracer.span("Hydro::try_suggest_dt", |_| match start {
        Some(ck) => Ok(ck.dt),
        None => hydro.try_suggest_dt(&state),
    });
    let mut wall = build_s + dt_s;
    let mut dt = match dt0 {
        Ok(dt) => dt,
        Err(e) => {
            error = Some(format!("suggest_dt failed: {e}"));
            0.0
        }
    };
    let mut steps = 0usize;
    let mut retries = 0usize;
    let mut since_ckpt = 0usize;
    let mut pending = 0.0;
    while error.is_none() && steps < case.steps {
        let audits_before = hydro.executor().resilience_report(0).audits_run;
        let (res, secs) = tracer.span("Hydro::try_advance", |_| hydro.try_advance(&mut state, dt));
        pending += secs;
        match res {
            Ok(adv) => {
                steps += 1;
                since_ckpt += 1;
                retries += adv.redos;
                dt = adv.dt_next;
                cg_iters += adv.outcome.cg_iterations as u64;
                // `Hydro::run` checkpoints only audited-clean states; an
                // accepted step that ran an audit is one.
                let audited = case.audit.is_none()
                    || hydro.executor().resilience_report(0).audits_run > audits_before;
                if let Some(every) = case.ckpt_every {
                    if audited && since_ckpt >= every {
                        let (w, secs) = tracer.span("Hydro::write_checkpoint", |_| {
                            hydro.write_checkpoint(&state, dt, steps, retries, &mut store)
                        });
                        pending += secs;
                        ckpt_write_s.push(secs);
                        match w {
                            Ok(bytes) => {
                                ckpts += 1;
                                ckpt_bytes += bytes as u64;
                                since_ckpt = 0;
                            }
                            Err(e) => error = Some(format!("checkpoint write failed: {e}")),
                        }
                    }
                }
                step_s.push(pending);
                wall += pending;
                pending = 0.0;
            }
            Err(HydroError::CorruptionDetected { .. }) if (restores as usize) < MAX_STEP_REDOS => {
                let (info, secs) = tracer.span("Hydro::rollback_to_latest", |_| {
                    hydro.rollback_to_latest(&mut state, &store)
                });
                pending += secs;
                match info {
                    Some(info) => {
                        restores += 1;
                        steps = info.steps as usize;
                        retries = info.retries as usize;
                        dt = info.dt;
                        since_ckpt = 0;
                    }
                    None => {
                        error = Some("corruption detected with no checkpoint to restore".into())
                    }
                }
            }
            Err(e) => error = Some(format!("step {steps} failed: {e}")),
        }
    }
    wall += pending;

    let exec = hydro.executor();
    let tel = exec.telemetry();
    let res = exec.resilience_report(0);
    let model = Model {
        host_s: exec.host.now(),
        host_j: exec.host.energy_joules(),
        gpu_j: exec.gpu.as_ref().map_or(0.0, |g| g.energy_joules()),
        phases: hydro
            .phase_profile()
            .into_iter()
            .map(|(n, s, _)| (n, s))
            .collect(),
        launches: tel.counter(counters::GPU_LAUNCHES),
        dram_bytes: tel.counter(counters::GPU_DRAM_BYTES),
        audits: res.audits_run,
        detected: res.corruptions_detected,
        flips: res.sdc_flips_injected,
        gpu_share: exec.balancer.as_ref().map_or(0.0, |b| b.ratio()),
        computations: hydro.sdc_attempts(),
        cg_iters,
        ckpts,
        ckpt_bytes,
        restores,
        state_digest: digest(
            state
                .v
                .iter()
                .chain(&state.e)
                .chain(&state.x)
                .chain([&state.t]),
        ),
    };
    let problems = if error.is_none() {
        check_round(case, &hydro, &state, case.start_steps + steps)
    } else {
        Vec::new()
    };
    (
        Round {
            build_s,
            step_s,
            ckpt_write_s,
            wall_s: wall,
            model,
            state,
            error,
            problems,
        },
        Some(hydro),
    )
}

/// Physics checks on a round's final state, against values worked out
/// from the problem definition or properties the method must have.
pub fn check_round<const D: usize>(
    case: &Case<D>,
    hydro: &Hydro<D>,
    state: &HydroState,
    steps: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    let (lo, hi) = case.problem.domain();
    let volume: f64 = (0..D).map(|d| hi[d] - lo[d]).product();
    let (mass_exact, energy_exact) = match case.kind {
        // rho0 = 1 everywhere; 0.25 deposited in the origin zone and a
        // specific internal energy of 1e-10 everywhere else.
        Kind::SedovStored | Kind::SedovMatfree => {
            let zone_vol: f64 = (0..D)
                .map(|d| (hi[d] - lo[d]) / case.zones[d] as f64)
                .product();
            (volume, 0.25 + 1e-10 * (volume - zone_vol))
        }
        // Three regions of [0,7]x[0,3]: x<=1 (rho 1, p 1, gamma 1.5);
        // x>1, y<=1.5 (rho 1, p 0.1, gamma 1.4); x>1, y>1.5 (rho 0.125,
        // p 0.1, gamma 1.5). Internal energy is p V / (gamma - 1).
        Kind::TriplePoint => {
            let mass = 3.0 * 1.0 + 9.0 * 1.0 + 9.0 * 0.125;
            let energy = 3.0 * 1.0 / 0.5 + 9.0 * 0.1 / 0.4 + 9.0 * 0.1 / 0.5;
            (mass, energy)
        }
    };
    let mass = hydro.total_mass();
    if (mass - mass_exact).abs() > 1e-12 * mass_exact {
        problems.push(format!("mass {mass:.15e} != {mass_exact:.15e}"));
    }
    let energy = hydro.energies(state).total();
    let tol = ENERGY_RECONCILE_TOL * steps.max(1) as f64 * energy_exact;
    if (energy - energy_exact).abs() > tol {
        problems.push(format!(
            "total energy {energy:.15e} differs from {energy_exact:.15e} by more than {tol:.3e}"
        ));
    }
    if state
        .v
        .iter()
        .chain(&state.e)
        .chain(&state.x)
        .any(|x| !x.is_finite())
    {
        problems.push("non-finite state".into());
    }
    if matches!(case.kind, Kind::SedovStored | Kind::SedovMatfree) {
        let gamma = 1.4;
        let limit = (gamma + 1.0) / (gamma - 1.0);
        let (compression, min_det, _) = hydro.density_diagnostics(state);
        if compression >= limit || min_det <= 0.0 {
            problems.push(format!(
                "compression {compression} beyond the strong-shock limit {limit}"
            ));
        }
        problems.extend(check_mirror_symmetry(hydro, state));
        problems.extend(check_shock_radius(case, state));
    }
    problems
}

/// Sedov on the positive octant is symmetric under swapping the first two
/// axes: every node's mirror must carry the mirrored position and
/// velocity.
fn check_mirror_symmetry<const D: usize>(hydro: &Hydro<D>, state: &HydroState) -> Vec<String> {
    let x0 = hydro.kin_space().initial_coords();
    let n = x0.len() / D;
    let key = |c: [f64; D]| c.map(|v| (v * 1e9).round() as i64);
    let node = |i: usize| -> [f64; D] { std::array::from_fn(|d| x0[d * n + i]) };
    let index: HashMap<[i64; D], usize> = (0..n).map(|i| (key(node(i)), i)).collect();
    let swap = |d: usize| match d {
        0 => 1,
        1 => 0,
        d => d,
    };
    let scale = |f: &[f64]| f.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
    let (vs, xs) = (scale(&state.v), scale(&state.x));
    let mut worst = 0.0f64;
    for i in 0..n {
        let mut m = node(i);
        m.swap(0, 1);
        let Some(&j) = index.get(&key(m)) else {
            return vec![format!("node {i} has no mirror node")];
        };
        for d in 0..D {
            let dv = (state.v[d * n + i] - state.v[swap(d) * n + j]).abs() / vs;
            let dx = (state.x[d * n + i] - state.x[swap(d) * n + j]).abs() / xs;
            worst = worst.max(dv).max(dx);
        }
    }
    if worst > 1e-8 {
        vec![format!("mirror symmetry broken by {worst:.3e} (relative)")]
    } else {
        Vec::new()
    }
}

/// The shock (taken as the node of largest speed) must lie within a band
/// of two zone widths around the Sedov-Taylor radius
/// `xi0 (E t^2 / rho)^(1/5)`, with `E` the whole-space energy (eight times
/// the octant's 0.25) and `xi0 = 1.1527` for gamma = 1.4 in 3D.
fn check_shock_radius<const D: usize>(case: &Case<D>, state: &HydroState) -> Vec<String> {
    if D != 3 {
        return Vec::new();
    }
    let n = state.v.len() / D;
    let speed = |i: usize| (0..D).map(|d| state.v[d * n + i].powi(2)).sum::<f64>();
    let Some(peak) = (0..n).max_by(|&a, &b| speed(a).total_cmp(&speed(b))) else {
        return vec!["empty state".into()];
    };
    let r = (0..D)
        .map(|d| state.x[d * n + peak].powi(2))
        .sum::<f64>()
        .sqrt();
    let r_st = 1.1527 * (8.0 * 0.25 * state.t * state.t).powf(0.2);
    let (lo, hi) = case.problem.domain();
    let h = (hi[0] - lo[0]) / case.zones[0] as f64;
    if (r - r_st).abs() > 2.0 * h {
        vec![format!(
            "shock radius {r:.4} is not within {:.4} of the Sedov-Taylor {r_st:.4}",
            2.0 * h
        )]
    } else {
        Vec::new()
    }
}

/// Runs a solver workload for `opts.seconds` of whole rounds and reports
/// its end-to-end metrics, or (traced) its per-layer metrics.
pub fn run<const D: usize>(case: &Case<D>, opts: &RunOptions) -> RunReport {
    if !case.flips.is_empty() {
        // GEMM-panel flips land only through the checksummed GEMM.
        abft::set_mode(AbftMode::Verify);
    }
    let mut tracer = Tracer::new(opts.trace);
    let mut report = RunReport {
        correct: true,
        ..Default::default()
    };
    let mut builds = Vec::new();
    while builds.len() < SETUP_BUILDS || builds.iter().sum::<f64>() < SETUP_SECONDS {
        let (b, secs) = tracer.span("Hydro::build", |_| case.build(true));
        report.check(b.is_ok(), || format!("setup build failed: {:?}", b.err()));
        builds.push(secs);
    }

    let start = match start_checkpoint(case) {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || format!("start-up steps failed: {e}"));
            return report;
        }
    };
    let start = start.as_ref();
    // The healing claim: a faulty round must end bit-identical to a
    // fault-free round of the same steps.
    let clean_digest = (!case.flips.is_empty()).then(|| {
        let (clean, _) = run_round(case, start, false, &mut tracer);
        report.check(clean.error.is_none(), || {
            format!("fault-free round: {:?}", clean.error)
        });
        clean.model.state_digest
    });
    // The first timed round is the reference every later round must
    // repeat bit for bit (set-up builds and start-up steps warmed up).
    let mut reference: Option<Model> = None;
    let check = |report: &mut RunReport, r: &Round, reference: &Model| {
        report.check(r.error.is_none(), || format!("round error: {:?}", r.error));
        for p in &r.problems {
            report.check(false, || p.clone());
        }
        report.check(r.model.fingerprint() == reference.fingerprint(), || {
            "modeled time, energy or counts differ between rounds".into()
        });
        if let Some(d) = clean_digest {
            report.check(r.model.state_digest == d, || {
                "faulty round did not heal to the fault-free final state".into()
            });
        }
    };

    // Timed rounds. A traced run alternates traced and untraced rounds so
    // the tracing overhead is measured in the same process.
    let mut rounds = Vec::new();
    let mut last = None;
    let mut traced_steps = Vec::new();
    let mut untraced_steps = Vec::new();
    let min_rounds = if opts.trace { 2 } else { 1 };
    let t0 = std::time::Instant::now();
    let mut k = 0u32;
    while t0.elapsed().as_secs_f64() < opts.seconds || rounds.len() < min_rounds {
        k += 1;
        let traced = opts.trace && k % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_round(k);
        drop(last.take());
        let (r, hydro) = run_round(case, start, true, &mut tracer);
        last = hydro;
        let reference = reference.get_or_insert_with(|| r.model.clone());
        check(&mut report, &r, reference);
        report.attempted += r.step_s.len() as u64 + u64::from(r.error.is_some());
        report.failed += u64::from(r.error.is_some());
        if traced {
            &mut traced_steps
        } else {
            &mut untraced_steps
        }
        .extend(&r.step_s);
        builds.push(r.build_s);
        rounds.push(r);
    }
    tracer.set_enabled(opts.trace);
    tracer.set_round(0);

    let steps: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.step_s.iter().copied())
        .collect();
    // Rates from the median round, so one disturbed round does not move them.
    let round_s = median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let reference = reference.expect("at least one timed round");
    let net_steps = case.steps as f64;
    let zones = case.num_zones() as f64;
    if !opts.trace {
        report.push("setup_s", "s", median(&builds));
        report.push(
            "zone_steps_per_s",
            "zone-steps/s",
            zones * net_steps / round_s,
        );
        report.push("jobs_per_s", "jobs/s", 1.0 / round_s);
        report.push("step_ms_p50", "ms", 1e3 * median(&steps));
        report.push("step_ms_p90", "ms", 1e3 * percentile(&steps, 0.9));
        report.push(
            "model_step_ms",
            "model_ms",
            1e3 * reference.host_s / net_steps,
        );
        report.push("model_energy_j", "J", reference.host_j + reference.gpu_j);
        report.push("peak_rss_mib", "MiB", peak_rss_mib());
        return report;
    }

    let m = &reference;
    let per_step = |s: f64| 1e3 * s / net_steps;
    report.push(
        "core.build_ms",
        "ms",
        median(&tracer.durations_ms("Hydro::build")),
    );
    report.push(
        "core.advance_ms",
        "ms",
        median(&tracer.durations_ms("Hydro::try_advance")),
    );
    report.push(
        "core.cg_iters_per_step",
        "count",
        m.cg_iters as f64 / net_steps,
    );
    report.push(
        "core.redo_attempts",
        "count",
        (m.computations as f64 - net_steps).max(0.0),
    );
    report.push(
        "core.useful_attempt_ratio",
        "ratio",
        net_steps / m.computations.max(1) as f64,
    );
    report.push(
        "model.corner_force_ms",
        "model_ms",
        per_step(m.phase_s("corner_force")),
    );
    report.push(
        "model.cg_solver_ms",
        "model_ms",
        per_step(m.phase_s("cg_solver")),
    );
    report.push(
        "model.energy_solve_ms",
        "model_ms",
        per_step(m.phase_s("energy_solve")),
    );
    report.push(
        "model.integration_ms",
        "model_ms",
        per_step(m.phase_s("integration")),
    );
    report.push(
        "model.sdc_audit_ms",
        "model_ms",
        per_step(m.phase_s("sdc_audit")),
    );
    report.push(
        "model.checkpoint_ms",
        "model_ms",
        per_step(m.phase_s("checkpoint")),
    );
    report.push("model.host_energy_j", "J", m.host_j);
    report.push("model.gpu_energy_j", "J", m.gpu_j);
    report.push(
        "gpu.launches_per_step",
        "count",
        m.launches as f64 / net_steps,
    );
    report.push(
        "gpu.dram_mb_per_step",
        "MB",
        m.dram_bytes as f64 / 1e6 / net_steps,
    );
    report.push("autotune.hybrid_gpu_share", "ratio", m.gpu_share);
    report.push("audit.runs", "count", m.audits as f64);
    report.push("audit.detected", "count", m.detected as f64);
    report.push("sdc.flips_injected", "count", m.flips as f64);
    report.push("checkpoint.restores", "count", m.restores as f64);

    let hydro = last.expect("the last timed round built its solver");
    let final_state = &rounds[rounds.len() - 1].state;
    // Checkpoint writes: timed inside the rounds where the workload
    // checkpoints, else on the last round's final state.
    let mut writes: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.ckpt_write_s.iter().copied())
        .collect();
    let mut ckpt_bytes = if m.ckpts > 0 {
        m.ckpt_bytes as f64 / m.ckpts as f64
    } else {
        0.0
    };
    if writes.is_empty() {
        let (w, b) = layers::checkpoint_writes(&hydro, final_state, &mut tracer);
        writes = w;
        ckpt_bytes = b as f64;
    }
    report.push("checkpoint.write_ms", "ms", 1e3 * median(&writes));
    report.push("checkpoint.bytes", "B", ckpt_bytes);

    layers::probe(case.problem.as_ref(), &hydro, final_state, &mut tracer).push_into(&mut report);
    crate::serve::layer_probe(opts.seed, &mut tracer).push_into(&mut report);

    let traced_ms = median(&traced_steps);
    let untraced_ms = median(&untraced_steps);
    report.push(
        "telemetry.overhead_pct",
        "%",
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
    );
    let lanes = layers::power_lanes(hydro.executor());
    let lanes: Vec<_> = lanes.iter().map(|(t, p)| (*t, p)).collect();
    let export_ms = layers::export_traces(opts, hydro.executor().telemetry(), &lanes, &tracer);
    report.push("telemetry.chrome_export_ms", "ms", export_ms);
    report
}
