//! `corpus-manhattan`: the training corpus `datagen::Dataset::city` builds
//! on the Manhattan preset, at `nproc` threads and at one thread. The
//! simulator, routing and the datagen fan-out do all the work; `neural`
//! does none, so this is the bypass workload for trainer and kernel
//! changes.

use crate::layers;
use crate::procfs::Sample;
use crate::trace::Tracer;
use crate::{stats, Budget, Ctx, Report, Res};
use datagen::dataset::{Dataset, DatasetSpec};
use roadnet::parallel::Parallelism;
use roadnet::presets;
use std::time::Instant;

/// Training triples per corpus build: enough that the per-build overhead
/// (network, populations, ground-truth run) is a small share.
pub const SAMPLES: usize = 24;
/// Training triples of the set-up build.
const WARMUP_SAMPLES: usize = 4;

fn spec(seed: u64, train_samples: usize) -> DatasetSpec {
    DatasetSpec {
        t: 6,
        interval_s: 300.0,
        train_samples,
        demand_scale: 0.15,
        seed,
    }
}

/// FNV-1a over the bits of every corpus tensor.
fn checksum(ds: &Dataset) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in &ds.train {
        for t in [s.tod.as_slice(), s.volume.as_slice(), s.speed.as_slice()] {
            for v in t {
                h = (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn build(tr: &Tracer, span: &'static str, par: Parallelism, spec: &DatasetSpec) -> Res<Dataset> {
    Ok(par.run(|| tr.span(span, || Dataset::city(presets::manhattan(), spec)))?)
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let tr = &ctx.tracer;
    let mut rep = Report::default();
    // Set-up: a small build that generates the network and populations,
    // runs the ground truth once and warms the allocator. It runs once
    // before the timed phase and again in every repetition, so its median
    // samples the machine across the whole run.
    let small = spec(ctx.seed, WARMUP_SAMPLES);
    let set_up = |rep: &mut Report| -> Res<Dataset> {
        let t = Instant::now();
        let ds = build(
            tr,
            "datagen.warmup",
            Parallelism::Threads(ctx.nproc),
            &small,
        )?;
        rep.setup_s.push(t.elapsed().as_secs_f64());
        Ok(ds)
    };
    let warm = set_up(&mut rep)?;

    let full = spec(ctx.seed, SAMPLES);
    let cpu = Sample::now();
    let mut reference = None;
    let mut identical = true;
    let mut budget = Budget::new(ctx.seconds, 3);
    while budget.more() {
        set_up(&mut rep)?;
        let order = if rep.attempted % 4 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for multi in order {
            let (span, par) = if multi {
                ("datagen.assemble", Parallelism::Threads(ctx.nproc))
            } else {
                ("datagen.assemble_1t", Parallelism::Serial)
            };
            let t = Instant::now();
            let ds = build(tr, span, par, &full)?;
            let per_sample = t.elapsed().as_secs_f64() / ds.train.len().max(1) as f64;
            rep.attempted += 1;
            if multi {
                rep.op_s.push(per_sample);
            } else {
                rep.op_1t_s.push(per_sample);
            }
            let sum = checksum(&ds);
            identical &= ds.train.len() == SAMPLES && *reference.get_or_insert(sum) == sum;
        }
    }
    rep.timed_phase_cpu(&cpu);
    rep.check(
        "corpus checksum identical at 1 and nproc threads, every repetition",
        identical,
    );
    rep.readout(
        "corpus_samples_per_s",
        1.0 / stats::median(&rep.op_s),
        "samples/s",
    );
    rep.readout(
        "corpus_1t_samples_per_s",
        1.0 / stats::median(&rep.op_1t_s),
        "samples/s",
    );

    if tr.enabled() {
        layers::probe_roadnet(tr, &warm, &mut rep)?;
        layers::probe_simulator(tr, &warm, &mut rep)?;
        let at_n = stats::median(&tr.durations_s("datagen.assemble"));
        rep.layer("datagen.assemble_s", at_n);
        rep.layer("datagen.samples", SAMPLES as f64);
        rep.layer(
            "pool.speedup",
            stats::median(&tr.durations_s("datagen.assemble_1t")) / at_n,
        );
    }
    Ok(rep)
}
