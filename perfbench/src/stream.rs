//! `stream-hangzhou`: `stream::StreamDriver` over a seeded `SimSource`
//! with demand drift and late arrivals, publishing every window into a
//! scratch store. The cold first window is set-up; the timed phase is a
//! run of warm windows, the only place the warm-start fit
//! (`run_warm_guarded`) and the per-window checkpoint publish run.
//!
//! After the timed phase, a short serving phase (`serve`) reads a served
//! Hangzhou artifact open-loop while versions hot-swap.
//!
//! The timed phase alternates segments of `WARM_PER_SEGMENT` windows at
//! `nproc` threads and at one thread. Each segment is a fresh driver on
//! the same family, so it resumes from the newest published version
//! through the restart path, which is bit-identical to an uninterrupted
//! run.

use crate::layers;
use crate::procfs::Sample;
use crate::recover::{build_hangzhou, ovs_config};
use crate::trace::Tracer;
use crate::{stats, Budget, Ctx, Report, Res};
use checkpoint::ArtifactStore;
use datagen::Dataset;
use ovs_core::RecoveryPolicy;
use roadnet::parallel::Parallelism;
use std::collections::BTreeMap;
use std::time::Instant;
use stream::{
    Observation, ObservationSource, SimSource, SimSourceConfig, StreamConfig, StreamDriver,
    StreamReport, WindowSpec, WindowStatus,
};

/// Length of the closing serving phase (see `serve`), outside the timed
/// phase.
const SERVE_SECONDS: f64 = 5.0;
/// Warm windows per timed segment. Each segment replays the frames of
/// every window before it, so short segments waste the run on replay.
const WARM_PER_SEGMENT: usize = 16;
/// Warm windows replayed on one thread to check fingerprints.
const VERIFY_WINDOWS: usize = 4;
const RUN_ID: &str = "bench";

fn config(ds: &Dataset, seed: u64, windows: usize) -> Res<StreamConfig> {
    let t = ds.n_intervals();
    Ok(StreamConfig {
        run_id: RUN_ID.into(),
        windows,
        // The CLI's geometry: one dataset-length window, half-window
        // stride, watermark of one interval.
        spec: WindowSpec::new(t, (t / 2).max(1), 1)?,
        ovs: ovs_config(seed),
        keep_versions: 0,
        recovery: RecoveryPolicy::default(),
        incidents: Default::default(),
    })
}

/// Wraps the source to time ingestion, and the driver's work between
/// two batches: when a new version was published in that gap, the gap
/// is one window from close to published version.
struct TimedSource<'a> {
    inner: SimSource,
    tr: &'a Tracer,
    store: &'a ArtifactStore,
    versions: usize,
    last_exit: Option<Instant>,
    ingest_s: Vec<f64>,
    windows_s: Vec<f64>,
}

impl TimedSource<'_> {
    /// Closes the gap after the last batch, if it published a version.
    fn close_gap(&mut self) -> stream::Result<()> {
        let now = Instant::now();
        let versions = self.store.names()?.len();
        if let Some(exit) = self.last_exit.filter(|_| versions > self.versions) {
            self.windows_s.push((now - exit).as_secs_f64());
            self.tr.record("stream.window", exit, now);
        }
        self.versions = versions;
        Ok(())
    }
}

impl ObservationSource for TimedSource<'_> {
    fn next_batch(&mut self) -> stream::Result<Vec<Observation>> {
        self.close_gap()?;
        let enter = Instant::now();
        let batch = self.tr.span("stream.ingest", || self.inner.next_batch());
        let exit = Instant::now();
        self.ingest_s.push((exit - enter).as_secs_f64());
        self.last_exit = Some(exit);
        batch
    }
}

/// What one driver run produced.
struct Segment {
    report: StreamReport,
    windows_s: Vec<f64>,
    ingest_s: Vec<f64>,
}

/// Runs a driver over `store` until `windows` windows have closed.
fn segment(
    tr: &Tracer,
    ds: &Dataset,
    store: &ArtifactStore,
    seed: u64,
    windows: usize,
    par: Parallelism,
    span: &'static str,
) -> Res<Segment> {
    let cfg = config(ds, seed, windows)?;
    let source_cfg = SimSourceConfig {
        seed,
        drift: 0.2,
        late_frac: 0.1,
        late_delay_frames: 1,
    };
    let run = || -> Result<Segment, String> {
        let mut source = TimedSource {
            inner: SimSource::new(ds.clone(), cfg.spec, source_cfg).map_err(|e| e.to_string())?,
            tr,
            store,
            versions: store.names().map_err(|e| e.to_string())?.len(),
            last_exit: None,
            ingest_s: Vec::new(),
            windows_s: Vec::new(),
        };
        let mut driver = StreamDriver::new(ds, cfg.clone()).map_err(|e| e.to_string())?;
        let report = tr
            .span(span, || driver.run(store, &mut source))
            .map_err(|e| e.to_string())?;
        source.close_gap().map_err(|e| e.to_string())?;
        Ok(Segment {
            report,
            windows_s: source.windows_s,
            ingest_s: source.ingest_s,
        })
    };
    Ok(par.run(run)?)
}

/// Fingerprints of the published windows, by window index.
fn fingerprints(report: &StreamReport, into: &mut BTreeMap<usize, String>) {
    for w in &report.windows {
        if let Some(f) = &w.fingerprint {
            into.insert(w.window, f.clone());
        }
    }
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let tr = &ctx.tracer;
    let mut rep = Report::default();
    let nproc = Parallelism::Threads(ctx.nproc);

    // Set-up: the dataset build plus the cold first window, in a fresh
    // store. Twice before the timed phase (the first store is kept for
    // the fingerprint replay, the second for the timed windows) and again
    // every other segment, so its median samples the whole run.
    let mut cold_prints = Vec::new();
    let mut set_up = |rep: &mut Report| -> Res<(Dataset, ArtifactStore)> {
        let t = Instant::now();
        let d = build_hangzhou(tr, ctx.seed, 1, &mut Report::default())?;
        let store = ArtifactStore::open(ctx.scratch.join(format!("store{}", cold_prints.len())))?;
        let cold = segment(tr, &d, &store, ctx.seed, 1, nproc, "stream.cold")?;
        rep.setup_s.push(t.elapsed().as_secs_f64());
        let mut prints = BTreeMap::new();
        fingerprints(&cold.report, &mut prints);
        cold_prints.push(prints);
        Ok((d, store))
    };
    let (_, replay_store) = set_up(&mut rep)?;
    let (ds, timed_store) = set_up(&mut rep)?;
    let store = &timed_store;
    let cpu = Sample::now();
    let mut windows = 1;
    let mut prints = BTreeMap::new();
    let (mut warm, mut cold, mut fit_steps, mut ingest) = (0, 0, Vec::new(), Vec::new());
    let mut budget = Budget::new(ctx.seconds, 2);
    let mut seg = 0;
    while budget.more() {
        let multi = seg % 2 == 0;
        if multi && seg > 0 {
            set_up(&mut rep)?;
        }
        let (par, span) = if multi {
            (nproc, "stream.segment")
        } else {
            (Parallelism::Serial, "stream.segment_1t")
        };
        windows += WARM_PER_SEGMENT;
        let s = segment(tr, &ds, store, ctx.seed, windows, par, span)?;
        seg += 1;
        fingerprints(&s.report, &mut prints);
        for w in &s.report.windows {
            match w.status {
                WindowStatus::Published if w.warm => {
                    warm += 1;
                    fit_steps.push(w.fit_steps as f64);
                }
                WindowStatus::Published => cold += 1,
                WindowStatus::Failed => rep.failed += 1,
                _ => {}
            }
            if w.status != WindowStatus::Skipped {
                rep.attempted += 1;
            }
        }
        ingest.extend(s.ingest_s);
        if multi {
            rep.op_s.extend(s.windows_s);
        } else {
            rep.op_1t_s.extend(s.windows_s);
        }
    }
    rep.timed_phase_cpu(&cpu);
    rep.check(
        "cold-window fingerprint repeats across set-ups",
        cold_prints
            .iter()
            .all(|p| p.len() == 1 && *p == cold_prints[0]),
    );
    rep.check(
        "no window failed and every timed window started warm",
        rep.failed == 0 && cold == 0,
    );
    rep.check(
        "every timed window published",
        prints.len() == windows - 1 && rep.op_s.len() + rep.op_1t_s.len() == windows - 1,
    );

    // Replay the first windows of the first timed segment from the first set-up's
    // store on one thread: the fingerprints must repeat, across thread
    // count and restart.
    let check = segment(
        tr,
        &ds,
        &replay_store,
        ctx.seed,
        1 + VERIFY_WINDOWS,
        Parallelism::Serial,
        "stream.verify",
    )?;
    let mut replayed = BTreeMap::new();
    fingerprints(&check.report, &mut replayed);
    rep.check(
        "warm-window fingerprints repeat at 1 and nproc threads",
        replayed.len() == VERIFY_WINDOWS && replayed.iter().all(|(w, f)| prints.get(w) == Some(f)),
    );
    let last = check.report.windows.last().and_then(|w| w.masked_rmse);
    rep.check("stream RMSE finite", last.is_some_and(f64::is_finite));

    rep.readout("window_s", stats::median(&rep.op_s), "s");
    rep.readout("window_1t_s", stats::median(&rep.op_1t_s), "s");
    rep.readout(
        "window_fail_share",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        "ratio",
    );
    rep.readout("stream_rmse", last.unwrap_or(f64::NAN), "m/s");
    rep.readout("warm_windows", warm as f64, "count");

    if tr.enabled() {
        // The recovery's stages, kernels and evaluation run nowhere else
        // in the gated workloads: one recovery at each thread count.
        crate::recover::recoveries(ctx, &ds, 0.0, 1, &mut rep)?;
        layers::probe_simulator(tr, &ds, &mut rep)?;
        rep.layer("stream.ingest_ms", stats::median(&ingest) * 1e3);
        rep.layer("stream.fit_steps", stats::median(&fit_steps));
        rep.layer("stream.warm_windows", warm as f64);
        rep.layer(
            "stream.cold_windows",
            cold_prints.len() as f64 + cold as f64,
        );
        rep.layer(
            "pool.speedup",
            stats::median(&rep.op_1t_s) / stats::median(&rep.op_s),
        );
        rep.layer(
            "datagen.assemble_s",
            stats::median(&tr.durations_s("datagen.assemble")),
        );
        rep.layer("datagen.samples", ds.train.len() as f64);
    }
    // Last: the serving phase pins this thread to one CPU.
    crate::serve::phase(ctx, &ds, SERVE_SECONDS, &mut rep)?;
    Ok(rep)
}
