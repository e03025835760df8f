//! `recover-hangzhou`: full OVS recovery on the Hangzhou preset through
//! the entry `cityod recover --method ovs` uses, at `nproc` threads and at
//! one thread. Neural and ovs-core do nearly all the work here.

use crate::layers::{self, median_ms};
use crate::procfs::Sample;
use crate::trace::Tracer;
use crate::{stats, Budget, Ctx, Report, Res};
use datagen::dataset::{Dataset, DatasetSpec};
use eval::harness::DatasetInput;
use eval::metrics::evaluate_tod;
use neural::Matrix;
use ovs_core::estimator::{link_to_matrix, matrix_to_tod};
use ovs_core::trainer::{calibrate_demand_level, OvsEstimator, OvsTrainer};
use ovs_core::{EstimatorInput, OvsConfig, OvsModel, TodEstimator};
use roadnet::parallel::Parallelism;
use roadnet::{presets, TodTensor};
use std::time::Instant;

/// Step budget of the three training stages: the CLI's 600/300/1500
/// scaled down 1:30-ish so a recovery takes about a second on a 2-core
/// machine and a run repeats it several times. A fit budget at or below
/// the trainer's minimum early-stopping patience (50) never stops early,
/// so every seed does the same number of steps.
pub const EPOCHS_V2S: usize = 16;
pub const EPOCHS_TOD2V: usize = 8;
pub const EPOCHS_FIT: usize = 40;
/// Independent test-time fits averaged into the recovered TOD (the CLI's
/// default).
pub const FIT_RESTARTS: usize = 3;

/// The dataset `cityod recover hangzhou` builds (its default flags), with
/// the benchmark seed.
pub fn hangzhou_spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        t: 6,
        interval_s: 300.0,
        train_samples: 6,
        demand_scale: 0.15,
        seed,
    }
}

/// The CLI's model shape (`lstm_hidden` 16) with the benchmark's step
/// budget.
pub fn ovs_config(seed: u64) -> OvsConfig {
    OvsConfig {
        lstm_hidden: 16,
        epochs_v2s: EPOCHS_V2S,
        epochs_tod2v: EPOCHS_TOD2V,
        epochs_fit: EPOCHS_FIT,
        fit_restarts: FIT_RESTARTS,
        seed,
        ..OvsConfig::default()
    }
}

/// Builds the Hangzhou dataset `times` times, recording each build as a
/// set-up sample, and returns the last.
pub fn build_hangzhou(tr: &Tracer, seed: u64, times: usize, rep: &mut Report) -> Res<Dataset> {
    let spec = hangzhou_spec(seed);
    let mut ds = None;
    for _ in 0..times {
        let t = Instant::now();
        ds = Some(tr.span("datagen.assemble", || {
            Dataset::city(presets::hangzhou(), &spec)
        })?);
        rep.setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok(ds.ok_or("no set-up ran")?)
}

/// Bit pattern of a tensor, for exact comparisons.
pub fn bits(t: &TodTensor) -> Vec<u64> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let tr = &ctx.tracer;
    let mut rep = Report::default();
    let ds = build_hangzhou(tr, ctx.seed, 3, &mut rep)?;
    let cpu = Sample::now();
    let (at_n, at_1) = recoveries(ctx, &ds, ctx.seconds, 3, &mut rep)?;
    rep.timed_phase_cpu(&cpu);
    rep.attempted = (at_n.len() + at_1.len()) as u64;
    rep.op_s = at_n;
    rep.op_1t_s = at_1;
    if tr.enabled() {
        layers::probe_simulator(tr, &ds, &mut rep)?;
        rep.layer(
            "datagen.assemble_s",
            stats::median(&tr.durations_s("datagen.assemble")),
        );
        rep.layer("datagen.samples", ds.train.len() as f64);
        rep.layer(
            "pool.speedup",
            stats::median(&rep.op_1t_s) / stats::median(&rep.op_s),
        );
    }
    Ok(rep)
}

/// Recovers `ds`'s TOD at `nproc` threads and at one thread, alternating,
/// for `seconds` and at least `min_reps` times each: untraced through the
/// public entry, traced through the staged pipeline with every stage in a
/// span. Adds the output checks, the readouts and, traced, the ovs,
/// neural, eval and roadnet layers to `rep`. Returns the wall times in
/// seconds at `nproc` and at one thread.
pub fn recoveries(
    ctx: &Ctx,
    ds: &Dataset,
    seconds: f64,
    min_reps: usize,
    rep: &mut Report,
) -> Res<(Vec<f64>, Vec<f64>)> {
    let tr = &ctx.tracer;
    let owned = DatasetInput::new(ds);
    let input = owned.input(ds, false);
    let cfg = ovs_config(ctx.seed);
    let (mut at_n, mut at_1) = (Vec::new(), Vec::new());
    let mut first: Option<(TodTensor, Vec<u64>)> = None;
    let mut identical = true;
    let mut steps = None;
    let mut budget = Budget::new(seconds, min_reps);
    while budget.more() {
        // Alternate which thread count goes first so drift over the run
        // lands on both sides equally.
        let order = if at_n.len() % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for multi in order {
            let par = if multi {
                Parallelism::Threads(ctx.nproc)
            } else {
                Parallelism::Serial
            };
            let t = Instant::now();
            let tod = if tr.enabled() {
                let name = if multi {
                    "ovs.recover"
                } else {
                    "ovs.recover_1t"
                };
                // The first multi-thread recovery also times the trained
                // model's module passes.
                let probe = multi && steps.is_none();
                let (mean, s) = par.run(|| {
                    traced_recover(tr, name, &cfg, &input, probe).map_err(|e| e.to_string())
                })?;
                steps = Some(s);
                matrix_to_tod(&mean)
            } else {
                par.run(|| OvsEstimator::new(cfg.clone()).estimate(&input))?
            };
            let dt = t.elapsed().as_secs_f64();
            if multi {
                at_n.push(dt);
            } else {
                at_1.push(dt);
            }
            let b = bits(&tod);
            match &first {
                None => first = Some((tod, b)),
                Some((_, r)) => identical &= *r == b,
            }
        }
    }
    rep.check(
        "recovered TOD bit-identical at 1 and nproc threads, every repetition",
        identical,
    );

    let (tod, reference) = first.ok_or("no recovery ran")?;
    let rmse = tr.span("eval.evaluate", || evaluate_tod(ds, &tod))?;
    rep.check("TOD RMSE finite", rmse.tod.is_finite());
    rep.readout("recover_s", stats::median(&at_n), "s");
    rep.readout("recover_1t_s", stats::median(&at_1), "s");
    rep.readout("tod_rmse", rmse.tod, "veh/interval");

    if tr.enabled() {
        // The per-layer breakdown must describe the same computation the
        // public entry runs.
        let entry = tr.span("ovs.entry", || {
            Parallelism::Threads(ctx.nproc).run(|| OvsEstimator::new(cfg.clone()).estimate(&input))
        })?;
        rep.check(
            "staged pipeline bit-identical to the public entry",
            bits(&entry) == reference,
        );
        let (v2s, tod2v, fit) = steps.ok_or("no traced recovery ran")?;
        stage_layers(tr, rep, v2s, tod2v, fit);
        layers::probe_roadnet(tr, ds, rep)?;
        layers::probe_neural(
            tr,
            ds.n_links() * ds.train.len(),
            cfg.lstm_hidden,
            ctx.nproc,
            rep,
        );
        rep.layer("eval.evaluate_ms", median_ms(tr, "eval.evaluate"));
    }
    Ok((at_n, at_1))
}

/// One recovery through the trainer's public stage calls, each in its own
/// span, in exactly the order and with exactly the seeds
/// `OvsTrainer::run_ensembled` uses. Returns the averaged TOD and the
/// v2s / tod2v / summed fit step counts. With `probe`, also times the
/// trained model's module passes, outside the recovery's span.
fn traced_recover(
    tr: &Tracer,
    name: &'static str,
    cfg: &OvsConfig,
    input: &EstimatorInput<'_>,
    probe: bool,
) -> Res<(Matrix, (usize, usize, usize))> {
    let (mut model, mean, steps) = tr.span(name, || recover_stages(tr, cfg, input))?;
    if probe {
        probe_modules(tr, &mut model, input, &mean);
    }
    Ok((mean, steps))
}

fn recover_stages(
    tr: &Tracer,
    cfg: &OvsConfig,
    input: &EstimatorInput<'_>,
) -> Res<(OvsModel, Matrix, (usize, usize, usize))> {
    let (trainer, mut model) = tr.span("ovs.prepare", || -> Res<_> {
        let adapted = cfg.clone().adapted_to_corpus(input.train);
        let trainer = OvsTrainer::new(adapted.clone());
        let mut model = OvsModel::new(
            input.net,
            input.ods,
            input.n_intervals(),
            input.interval_s,
            adapted,
        )?;
        let level = calibrate_demand_level(input);
        model
            .tod_gen
            .set_output_level(level / model.config().g_max.max(1e-9));
        Ok((trainer, model))
    })?;
    let v2s = tr.span("ovs.v2s", || trainer.train_v2s(&mut model, input.train))?;
    let tod2v = tr.span("ovs.tod2v", || trainer.train_tod2v(&mut model, input.train))?;
    let mut fit = tr
        .span("ovs.fit", || trainer.fit_tod_gen(&mut model, input))?
        .len();
    // Restarts run on the unadapted configuration, as in
    // `run_ensembled`.
    let outer = OvsTrainer::new(cfg.clone());
    let (mut mean, level) = tr.span("ovs.ensemble", || {
        (model.recovered_tod(), calibrate_demand_level(input))
    });
    let restarts = cfg.fit_restarts.max(1);
    for r in 1..restarts {
        tr.span("ovs.ensemble", || {
            model.reset_generator(cfg.seed.wrapping_add(r as u64 * 7919));
            model
                .tod_gen
                .set_output_level(level / model.config().g_max.max(1e-9));
        });
        fit += tr
            .span("ovs.fit", || outer.fit_tod_gen(&mut model, input))?
            .len();
        tr.span("ovs.ensemble", || mean.add_assign(&model.recovered_tod()));
    }
    mean.scale(1.0 / restarts as f64);
    Ok((model, mean, (v2s.len(), tod2v.len(), fit)))
}

/// Forward and backward passes of the model's three public modules on
/// the trained model, at the shapes training uses.
fn probe_modules(tr: &Tracer, model: &mut OvsModel, input: &EstimatorInput<'_>, tod: &Matrix) {
    const CALLS: usize = 10;
    let t = input.n_intervals();
    // Every link of every corpus sample is one batch row, as in stage 1.
    let volumes: Vec<f64> = input
        .train
        .iter()
        .flat_map(|s| link_to_matrix(&s.volume).as_slice().to_vec())
        .collect();
    let q = Matrix::from_vec(input.n_links() * input.train.len(), t, volumes)
        .expect("every corpus sample has the dataset's link x interval shape");
    let dv = Matrix::filled(q.rows(), t, 1e-3);
    let dq = Matrix::filled(input.n_links(), t, 1e-3);
    let dg = Matrix::filled(tod.rows(), t, 1e-3);
    for _ in 0..CALLS {
        std::hint::black_box(tr.span("ovs.v2s_fwd", || model.v2s.forward(&q, true)));
        std::hint::black_box(tr.span("ovs.v2s_bwd", || model.v2s.backward(&dv)));
        std::hint::black_box(tr.span("ovs.tod2v_fwd", || model.tod2v.forward(tod, true)));
        std::hint::black_box(tr.span("ovs.tod2v_bwd", || model.tod2v.backward(&dq)));
        std::hint::black_box(tr.span("ovs.tod_gen_fwd", || model.tod_gen.forward(true)));
        tr.span("ovs.tod_gen_bwd", || model.tod_gen.backward(&dg));
    }
}

fn stage_layers(tr: &Tracer, rep: &mut Report, v2s: usize, tod2v: usize, fit: usize) {
    let under = |child: &str| stats::median(&tr.child_sums_s(child, "ovs.recover"));
    rep.layer("ovs.prepare_ms", under("ovs.prepare") * 1e3);
    rep.layer("ovs.v2s_s", under("ovs.v2s"));
    rep.layer("ovs.tod2v_s", under("ovs.tod2v"));
    rep.layer("ovs.fit_s", under("ovs.fit"));
    rep.layer("ovs.v2s_steps", v2s as f64);
    rep.layer("ovs.tod2v_steps", tod2v as f64);
    rep.layer("ovs.fit_steps", fit as f64);
    for (span, metric) in [
        ("ovs.v2s_fwd", "ovs.v2s_fwd_ms"),
        ("ovs.v2s_bwd", "ovs.v2s_bwd_ms"),
        ("ovs.tod2v_fwd", "ovs.tod2v_fwd_ms"),
        ("ovs.tod2v_bwd", "ovs.tod2v_bwd_ms"),
        ("ovs.tod_gen_fwd", "ovs.tod_gen_fwd_ms"),
        ("ovs.tod_gen_bwd", "ovs.tod_gen_bwd_ms"),
    ] {
        rep.layer(metric, median_ms(tr, span));
    }
    rep.layer(
        "ovs.unattributed_s",
        stats::median(&tr.self_times_s("ovs.recover")),
    );
    let coverage = stats::median(&tr.child_coverage("ovs.recover"));
    rep.layer("ovs.span_coverage", coverage);
    rep.check(
        "named stage spans cover at least 95% of a recovery",
        coverage >= 0.95,
    );
}
