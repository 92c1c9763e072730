//! The routed serving workload: a fixed three-tenant job mix placed by
//! `serve::Router` over a CPU node, a K20 node and an Ampere node, and run
//! by `Supervisor` to completion, in whole rounds.
//!
//! Set-up is a fresh `Router` routing every job (the fleet pilots); the
//! run is `Supervisor::submit_routed` of every job followed by
//! `Supervisor::run_to_completion`.

use std::collections::BTreeMap;

use blast_repro::blast_core::fleet::{self, PILOT_STEPS};
use blast_repro::blast_core::{
    ExecMode, Hydro, HydroState, RunConfig, TriplePoint, ENERGY_RECONCILE_TOL,
};
use blast_repro::blast_serve::{
    JobOutcome, JobSpec, Router, RoutingDecision, Scenario, ServeConfig, ServeReport, Supervisor,
    WorkerSpec,
};
use blast_repro::blast_telemetry::names::counters;
use blast_repro::gpu_sim::{fault::fault_draw, DeviceCatalog};

use crate::layers;
use crate::report::RunReport;
use crate::stats::{digest, median, peak_rss_mib, percentile};
use crate::trace::Tracer;
use crate::RunOptions;

/// The fleet: one CPU-only node and two GPU generations.
pub const FLEET: [&str; 3] = ["cpu-e5-2670", "k20", "ampere"];

/// One job class of the mix: `(tenant, scenario, zones, order, t_final,
/// max_steps, count)`.
type JobClass = (&'static str, Scenario, [usize; 2], usize, f64, usize, usize);

/// The mix: many small Sedov jobs, mid-size Taylor-Green vortices and a
/// few large high-order triple-point jobs, so no single device is the
/// cheapest for all of them.
const MIX: [JobClass; 3] = [
    ("acme", Scenario::Sedov, [4, 4], 2, 0.008, 10, 24),
    ("globex", Scenario::TaylorGreen, [10, 10], 2, 0.02, 14, 12),
    ("initech", Scenario::TriplePoint, [16, 16], 3, 0.03, 16, 8),
];

/// Random stream of the arrival jitter.
const ARRIVAL_STREAM: u64 = 0x5e47e;

/// The job list for `seed`, classes interleaved round-robin. Arrivals are
/// 0.1 ms apart plus a seeded jitter below 0.1 ms, so their order is
/// fixed and only their spacing depends on the seed. Every job carries a
/// latency limit on the simulated clock.
pub fn jobs(seed: u64, mix: &[JobClass]) -> Vec<JobSpec> {
    let total: usize = mix.iter().map(|c| c.6).sum();
    let mut left: Vec<usize> = mix.iter().map(|c| c.6).collect();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        for (i, &(tenant, scenario, zones, order, t_final, max_steps, _)) in mix.iter().enumerate()
        {
            if left[i] == 0 {
                continue;
            }
            left[i] -= 1;
            let k = out.len();
            let jitter = 1e-4 * fault_draw(seed, ARRIVAL_STREAM, k as u64);
            out.push(JobSpec {
                tenant: tenant.to_string(),
                scenario,
                zones,
                order,
                t_final,
                max_steps,
                priority: 0,
                arrival_s: k as f64 * 1e-4 + jitter,
                deadline_s: Some(30.0 + k as f64),
                checkpoint_every: 0,
                energy_est_j: 0.0,
                fault_immune: false,
                placement: None,
            });
        }
    }
    out
}

fn catalog() -> DeviceCatalog {
    DeviceCatalog::standard_subset(&FLEET)
}

/// Routing of every job by a fresh router.
struct Routing {
    router: Router,
    decisions: Vec<RoutingDecision>,
    /// Wall ms of routes that piloted a new job shape.
    first_ms: Vec<f64>,
    /// Wall ms of routes served from the pilot cache.
    memo_ms: Vec<f64>,
    /// Pilot steps the fresh router ran.
    pilot_steps: u64,
}

fn route_all(jobs: &[JobSpec], tracer: &mut Tracer) -> Routing {
    let mut router = Router::new(catalog());
    let mut seen = Vec::new();
    let (mut first_ms, mut memo_ms) = (Vec::new(), Vec::new());
    let mut decisions = Vec::with_capacity(jobs.len());
    let mut pilot_steps = 0u64;
    for spec in jobs {
        let (d, secs) = tracer.span("Router::route", |_| router.route(spec));
        let d = d.expect("every job of the mix fits some fleet device");
        let shape = (spec.scenario, spec.zones, spec.order);
        if seen.contains(&shape) {
            memo_ms.push(1e3 * secs);
        } else {
            seen.push(shape);
            first_ms.push(1e3 * secs);
            pilot_steps += (d.candidates.len() * (1 + PILOT_STEPS)) as u64;
        }
        decisions.push(d);
    }
    Routing {
        router,
        decisions,
        first_ms,
        memo_ms,
        pilot_steps,
    }
}

/// One supervisor run of the routed mix.
struct Served {
    sup: Supervisor,
    report: ServeReport,
    wall_s: f64,
}

fn serve(jobs: &[JobSpec], router: &mut Router, seed: u64, tracer: &mut Tracer) -> Served {
    let workers = FLEET
        .iter()
        .map(|id| WorkerSpec::from_device(&DeviceCatalog::get(id)))
        .collect();
    let mut sup = Supervisor::new(
        ServeConfig {
            seed,
            ..ServeConfig::default()
        },
        workers,
    );
    let (report, wall_s) = tracer.span("serve.run", |t| {
        for spec in jobs {
            t.span("Supervisor::submit_routed", |_| {
                sup.submit_routed(router, spec.clone())
            })
            .0
            .expect("the fleet admits every job of the mix");
        }
        t.span("Supervisor::run_to_completion", |_| sup.run_to_completion())
            .0
    });
    Served {
        sup,
        report,
        wall_s,
    }
}

fn steps(report: &ServeReport) -> usize {
    report.jobs.iter().map(|j| j.steps).sum()
}

fn tenant_energy(report: &ServeReport) -> f64 {
    report.tenant_energy_j.iter().map(|(_, j)| j).sum()
}

/// Checks one served round: every job completed within its latency limit,
/// billed energy reconciles with the traces, and every job's final state
/// conserves its scenario's initial total energy.
fn check_served(jobs: &[JobSpec], served: &Served, checkers: &mut Checkers) -> Vec<String> {
    let mut problems = Vec::new();
    let r = &served.report;
    if r.jobs.len() != jobs.len() {
        problems.push(format!("{} of {} jobs admitted", r.jobs.len(), jobs.len()));
    }
    let err = r.reconciliation_error();
    if err > ENERGY_RECONCILE_TOL {
        problems.push(format!("billed energy reconciles only to {err:.3e}"));
    }
    for (rec, spec) in r.jobs.iter().zip(jobs) {
        if !matches!(rec.outcome, Some(JobOutcome::Completed { .. })) {
            problems.push(format!("job {} ended {:?}", rec.id.0, rec.outcome));
            continue;
        }
        let latency = rec.finished_s.unwrap_or(f64::INFINITY) - spec.arrival_s;
        if latency > spec.deadline_s.unwrap_or(f64::INFINITY) {
            problems.push(format!(
                "job {} missed its latency limit ({latency:.3} s)",
                rec.id.0
            ));
        }
        match &rec.final_state {
            Some(state) => {
                if let Some(p) = checkers.check(spec, state, rec.steps) {
                    problems.push(format!("job {}: {p}", rec.id.0));
                }
            }
            None => problems.push(format!("job {} has no final state", rec.id.0)),
        }
    }
    problems
}

/// One solver per job class, built once, to evaluate energies of the
/// jobs' final states.
#[derive(Default)]
struct Checkers {
    solvers: BTreeMap<(&'static str, [usize; 2], usize), (Hydro<2>, f64)>,
}

impl Checkers {
    fn check(&mut self, spec: &JobSpec, state: &HydroState, steps: usize) -> Option<String> {
        let key = (spec.scenario.name(), spec.zones, spec.order);
        let (hydro, e0) = self.solvers.entry(key).or_insert_with(|| {
            let exec = fleet::executor_for(&DeviceCatalog::get("cpu-e5-2670"), ExecMode::CpuSerial);
            let h = spec
                .scenario
                .build(spec.zones, spec.order, exec)
                .expect("checker builds");
            let e0 = h.energies(&h.initial_state()).total();
            (h, e0)
        });
        let e = hydro.energies(state).total();
        let tol = ENERGY_RECONCILE_TOL * steps.max(1) as f64 * e0.abs();
        ((e - *e0).abs() > tol)
            .then(|| format!("total energy {e:.15e} drifted from {e0:.15e} beyond {tol:.3e}"))
    }
}

/// Runs the serving workload for `opts.seconds` of whole rounds.
pub fn run(opts: &RunOptions) -> RunReport {
    let jobs = jobs(opts.seed, &MIX);
    let mut tracer = Tracer::new(opts.trace);
    let mut report = RunReport {
        correct: true,
        ..Default::default()
    };
    let mut checkers = Checkers::default();

    // Warm-up round: the reference for the modeled figures.
    let (mut routing, setup_s) = tracer.span("setup", |t| route_all(&jobs, t));
    let mut setups = vec![setup_s];
    let warm = serve(&jobs, &mut routing.router, opts.seed, &mut tracer);
    for p in check_served(&jobs, &warm, &mut checkers) {
        report.check(false, || p);
    }
    let fingerprint = |s: &Served| {
        let r = &s.report;
        let per_job: Vec<f64> = r.jobs.iter().map(|j| f64::from_bits(j.digest())).collect();
        digest([tenant_energy(r), r.wall_s].iter().chain(&per_job))
    };
    let reference = fingerprint(&warm);

    let mut run_s = Vec::new();
    let mut per_step_ms = Vec::new();
    let (mut jobs_rate, mut zone_steps_rate) = (Vec::new(), Vec::new());
    let (mut first_ms, mut memo_ms) = (routing.first_ms.clone(), routing.memo_ms.clone());
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = std::time::Instant::now();
    let mut k = 0u32;
    let min_rounds = if opts.trace { 2 } else { 1 };
    while start.elapsed().as_secs_f64() < opts.seconds || run_s.len() < min_rounds {
        k += 1;
        let traced = opts.trace && k % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_round(k);
        let (mut r, secs) = tracer.span("setup", |t| route_all(&jobs, t));
        setups.push(secs);
        first_ms.extend(&r.first_ms);
        memo_ms.extend(&r.memo_ms);
        let s = serve(&jobs, &mut r.router, opts.seed, &mut tracer);
        for p in check_served(&jobs, &s, &mut checkers) {
            report.check(false, || p);
        }
        report.check(fingerprint(&s) == reference, || {
            "billed energy, modeled time or job ledgers differ between rounds".into()
        });
        let ok = s
            .report
            .count(|o| matches!(o, JobOutcome::Completed { .. }));
        report.attempted += jobs.len() as u64;
        report.failed += (jobs.len() - ok) as u64;
        let zone_steps: usize = s
            .report
            .jobs
            .iter()
            .zip(&jobs)
            .map(|(rec, spec)| rec.steps * spec.zones.iter().product::<usize>())
            .sum();
        jobs_rate.push(ok as f64 / s.wall_s);
        zone_steps_rate.push(zone_steps as f64 / s.wall_s);
        let ms = 1e3 * s.wall_s / steps(&s.report).max(1) as f64;
        per_step_ms.push(ms);
        if traced {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .push(ms);
        run_s.push(s.wall_s);
        routing = r;
        last = Some(s);
    }
    let last = last.expect("at least one timed round");
    tracer.set_enabled(opts.trace);
    tracer.set_round(0);

    let r = &warm.report;
    let model_steps = steps(r).max(1) as f64;
    let worker_s: f64 = r.jobs.iter().map(|j| j.wall_s).sum();
    if !opts.trace {
        report.push("setup_s", "s", median(&setups));
        report.push("zone_steps_per_s", "zone-steps/s", median(&zone_steps_rate));
        report.push("jobs_per_s", "jobs/s", median(&jobs_rate));
        report.push("step_ms_p50", "ms", median(&per_step_ms));
        report.push("step_ms_p90", "ms", percentile(&per_step_ms, 0.9));
        report.push("model_step_ms", "model_ms", 1e3 * worker_s / model_steps);
        report.push("model_energy_j", "J", tenant_energy(r));
        report.push("peak_rss_mib", "MiB", peak_rss_mib());
        return report;
    }

    // The supervisor keeps each job's executor to itself, so the phase
    // breakdown replays one job of each class under its routed placement.
    let mix = replay_mix(&jobs, &routing.decisions);
    let steps_f = mix.steps.max(1) as f64;
    let phase = |prefix: &str| {
        1e3 * mix
            .phases
            .iter()
            .filter(|p| p.0.starts_with(prefix))
            .fold(0.0, |a, p| a + p.1)
            / steps_f
    };
    let redos: usize = r.jobs.iter().map(|j| j.redos).sum();
    // The solver layers, probed on the mix's largest job class.
    let probe = core_probe(&mut tracer);
    report.push("core.build_ms", "ms", probe.build_ms);
    report.push("core.advance_ms", "ms", probe.advance_ms);
    report.push("core.cg_iters_per_step", "count", probe.cg_iters_per_step);
    report.push("core.redo_attempts", "count", redos as f64);
    report.push(
        "core.useful_attempt_ratio",
        "ratio",
        model_steps / (model_steps + redos as f64),
    );
    report.push("model.corner_force_ms", "model_ms", phase("corner_force"));
    report.push("model.cg_solver_ms", "model_ms", phase("cg_solver"));
    report.push("model.energy_solve_ms", "model_ms", phase("energy_solve"));
    report.push("model.integration_ms", "model_ms", phase("integration"));
    report.push("model.sdc_audit_ms", "model_ms", phase("sdc_audit"));
    report.push("model.checkpoint_ms", "model_ms", phase("checkpoint"));
    report.push("model.host_energy_j", "J", mix.host_j);
    report.push("model.gpu_energy_j", "J", mix.gpu_j);
    report.push(
        "gpu.launches_per_step",
        "count",
        mix.launches as f64 / steps_f,
    );
    report.push(
        "gpu.dram_mb_per_step",
        "MB",
        mix.dram_bytes as f64 / 1e6 / steps_f,
    );
    report.push("autotune.hybrid_gpu_share", "ratio", mix.gpu_share);
    report.push("audit.runs", "count", r.resilience.audits_run as f64);
    report.push(
        "audit.detected",
        "count",
        r.resilience.corruptions_detected as f64,
    );
    report.push(
        "sdc.flips_injected",
        "count",
        r.resilience.sdc_flips_injected as f64,
    );
    report.push("checkpoint.restores", "count", r.resilience.restores as f64);
    let (writes, bytes) = layers::checkpoint_writes(&probe.hydro, &probe.state, &mut tracer);
    report.push("checkpoint.write_ms", "ms", 1e3 * median(&writes));
    report.push("checkpoint.bytes", "B", bytes as f64);
    layers::probe(
        &TriplePoint::default(),
        &probe.hydro,
        &probe.state,
        &mut tracer,
    )
    .push_into(&mut report);
    ServeLayer {
        route_first_ms: median(&first_ms),
        route_memo_ms: median(&memo_ms),
        pilot_steps: routing.pilot_steps,
        run_s: median(&run_s),
        decisions: routing.decisions,
    }
    .push_into(&mut report);
    let (t, u) = (median(&traced_ms), median(&untraced_ms));
    report.push("telemetry.overhead_pct", "%", 100.0 * (t - u) / u);
    let export_ms = layers::export_traces(opts, last.sup.telemetry(), &[], &tracer);
    report.push("telemetry.chrome_export_ms", "ms", export_ms);
    report
}

/// The program's accounting of the whole mix, replayed job class by job
/// class under each class's routed placement and weighted by its job
/// count.
#[derive(Default)]
struct MixModel {
    phases: Vec<(&'static str, f64)>,
    host_j: f64,
    gpu_j: f64,
    launches: u64,
    dram_bytes: u64,
    gpu_share: f64,
    steps: usize,
}

fn replay_mix(jobs: &[JobSpec], decisions: &[RoutingDecision]) -> MixModel {
    let mut out = MixModel::default();
    let mut seen: Vec<(Scenario, [usize; 2], usize, String)> = Vec::new();
    for (spec, d) in jobs.iter().zip(decisions) {
        let key = (
            spec.scenario,
            spec.zones,
            spec.order,
            d.placement.device_id.clone(),
        );
        if seen.contains(&key) {
            continue;
        }
        let count = jobs
            .iter()
            .zip(decisions)
            .filter(|(j, dd)| (j.scenario, j.zones, j.order, dd.placement.device_id.clone()) == key)
            .count();
        seen.push(key);
        let dev = DeviceCatalog::get(&d.placement.device_id);
        let exec = fleet::executor_for(&dev, d.placement.mode.clone());
        let mut hydro = spec
            .scenario
            .build(spec.zones, spec.order, exec)
            .expect("replay builds");
        let mut state = hydro.initial_state();
        let stats = hydro
            .run(
                &mut state,
                RunConfig::to(spec.t_final).max_steps(spec.max_steps),
            )
            .expect("replay runs");
        let w = count as f64;
        for (name, secs, _) in hydro.phase_profile() {
            match out.phases.iter_mut().find(|p| p.0 == name) {
                Some(p) => p.1 += w * secs,
                None => out.phases.push((name, w * secs)),
            }
        }
        let exec = hydro.executor();
        out.host_j += w * exec.host.energy_joules();
        out.gpu_j += w * exec.gpu.as_ref().map_or(0.0, |g| g.energy_joules());
        let tel = exec.telemetry();
        out.launches += count as u64 * tel.counter(counters::GPU_LAUNCHES);
        out.dram_bytes += count as u64 * tel.counter(counters::GPU_DRAM_BYTES);
        if let Some(b) = &exec.balancer {
            out.gpu_share = out.gpu_share.max(b.ratio());
        }
        out.steps += count * stats.steps;
    }
    out
}

/// The solver layers on the mix's largest job class, for the traced run.
struct CoreProbe {
    build_ms: f64,
    advance_ms: f64,
    cg_iters_per_step: f64,
    hydro: Hydro<2>,
    state: HydroState,
}

fn core_probe(tracer: &mut Tracer) -> CoreProbe {
    const BUILDS: usize = 5;
    const STEPS: usize = 8;
    let (_, scenario, zones, order, ..) = MIX[2];
    let build = || {
        let exec = fleet::executor_for(&DeviceCatalog::get("cpu-e5-2670"), ExecMode::CpuSerial);
        scenario
            .build(zones, order, exec)
            .expect("probe solver builds")
    };
    let builds: Vec<(Hydro<2>, f64)> = (0..BUILDS)
        .map(|_| tracer.span("Hydro::build", |_| build()))
        .collect();
    let build_ms = median(&builds.iter().map(|b| 1e3 * b.1).collect::<Vec<_>>());
    let mut hydro = builds.into_iter().last().expect("BUILDS > 0").0;
    let mut state = hydro.initial_state();
    let mut dt = hydro.try_suggest_dt(&state).expect("probe dt");
    let (mut advance_ms, mut cg) = (Vec::new(), 0usize);
    for _ in 0..STEPS {
        let (adv, secs) = tracer.span("Hydro::try_advance", |_| hydro.try_advance(&mut state, dt));
        let adv = adv.expect("probe step");
        dt = adv.dt_next;
        cg += adv.outcome.cg_iterations;
        advance_ms.push(1e3 * secs);
    }
    CoreProbe {
        build_ms,
        advance_ms: median(&advance_ms),
        cg_iters_per_step: cg as f64 / STEPS as f64,
        hydro,
        state,
    }
}

/// The serve layer's figures.
pub struct ServeLayer {
    /// Median wall ms of a route that pilots a new job shape.
    pub route_first_ms: f64,
    /// Median wall ms of a route served from the pilot cache.
    pub route_memo_ms: f64,
    /// Pilot steps one fresh router runs for the mix.
    pub pilot_steps: u64,
    /// Median wall seconds of submitting and running the mix.
    pub run_s: f64,
    /// The placements.
    pub decisions: Vec<RoutingDecision>,
}

impl ServeLayer {
    /// Appends the serve-layer metrics to `report`.
    pub fn push_into(&self, report: &mut RunReport) {
        report.push("serve.route_first_ms", "ms", self.route_first_ms);
        report.push("serve.route_memo_ms", "ms", self.route_memo_ms);
        report.push("fleet.pilot_steps", "count", self.pilot_steps as f64);
        report.push("serve.run_s", "s", self.run_s);
        for dev in FLEET {
            let n = self
                .decisions
                .iter()
                .filter(|d| d.placement.device_id == dev)
                .count();
            report.push(format!("serve.jobs_on.{dev}"), "count", n as f64);
        }
        let forced = self.decisions.iter().filter(|d| d.slo_forced).count();
        report.push("serve.slo_forced", "count", forced as f64);
    }
}

/// The serve layer on its smallest mix (one job per class), for the
/// traced runs of the solver workloads.
pub fn layer_probe(seed: u64, tracer: &mut Tracer) -> ServeLayer {
    let mix: Vec<JobClass> = MIX
        .iter()
        .map(|c| (c.0, c.1, c.2, c.3, c.4, c.5, 1))
        .collect();
    let jobs = jobs(seed, &mix);
    let mut routing = route_all(&jobs, tracer);
    // A second pass over the warm router times the memoized routes.
    let memo_ms: Vec<f64> = jobs
        .iter()
        .map(|spec| {
            1e3 * tracer
                .span("Router::route", |_| routing.router.route(spec))
                .1
        })
        .collect();
    let served = serve(&jobs, &mut routing.router, seed, tracer);
    ServeLayer {
        route_first_ms: median(&routing.first_ms),
        route_memo_ms: median(&memo_ms),
        pilot_steps: routing.pilot_steps,
        run_s: served.wall_s,
        decisions: routing.decisions,
    }
}
