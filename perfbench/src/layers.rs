//! Per-layer metric table and the layer probes several workloads share.
//!
//! Each probe times calls into one crate's public functions from outside,
//! inside spans. A metric a workload does not exercise reads 0: the layer
//! did no work there (for example `neural.*` on `corpus-manhattan`).

use crate::trace::Tracer;
use crate::{stats, Report};
use datagen::Dataset;
use neural::Matrix;
use roadnet::parallel::Parallelism;
use roadnet::routing::k_shortest_paths;
use simulator::Simulation;

/// Every per-layer metric of the traced run, with its unit, in output
/// order. `BENCHMARK.json` lists the same names.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("pool.user_cpu_s", "s"),
    ("pool.sys_cpu_s", "s"),
    ("pool.threads_max", "count"),
    ("pool.speedup", "ratio"),
    ("roadnet.ksp_ms", "ms"),
    ("simulator.new_ms", "ms"),
    ("simulator.run_ms", "ms"),
    ("simulator.ticks", "count"),
    ("simulator.ticks_per_s", "1/s"),
    ("datagen.assemble_s", "s"),
    ("datagen.samples", "count"),
    ("neural.matmul_gflops", "GFLOP/s"),
    ("neural.matmul_at_b_gflops", "GFLOP/s"),
    ("neural.matmul_a_bt_gflops", "GFLOP/s"),
    ("neural.matmul_1t_gflops", "GFLOP/s"),
    ("neural.matmul_at_b_1t_gflops", "GFLOP/s"),
    ("neural.matmul_a_bt_1t_gflops", "GFLOP/s"),
    ("neural.flops", "count"),
    ("ovs.prepare_ms", "ms"),
    ("ovs.v2s_s", "s"),
    ("ovs.tod2v_s", "s"),
    ("ovs.fit_s", "s"),
    ("ovs.v2s_steps", "count"),
    ("ovs.tod2v_steps", "count"),
    ("ovs.fit_steps", "count"),
    ("ovs.v2s_fwd_ms", "ms"),
    ("ovs.v2s_bwd_ms", "ms"),
    ("ovs.tod2v_fwd_ms", "ms"),
    ("ovs.tod2v_bwd_ms", "ms"),
    ("ovs.tod_gen_fwd_ms", "ms"),
    ("ovs.tod_gen_bwd_ms", "ms"),
    ("ovs.unattributed_s", "s"),
    ("ovs.span_coverage", "ratio"),
    ("eval.evaluate_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.snapshot_ms", "ms"),
    ("checkpoint.artifact_bytes", "bytes"),
    ("serve.parse_us", "us"),
    ("serve.route_us", "us"),
    ("serve.write_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.view_build_ms", "ms"),
    ("serve.swap_visible_ms", "ms"),
    ("serve.read_p90_ms", "ms"),
    ("serve.read_p99_ms", "ms"),
    ("serve.gen_late_ms_max", "ms"),
    ("stream.ingest_ms", "ms"),
    ("stream.fit_steps", "count"),
    ("stream.warm_windows", "count"),
    ("stream.cold_windows", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Median milliseconds per operation of the spans named `name`.
pub fn median_ms(tr: &Tracer, name: &str) -> f64 {
    stats::median(&tr.per_op_s(name)) * 1e3
}

/// `roadnet.ksp_ms`: one loopless-shortest-path query per OD pair, on
/// free-flow travel time with the trainer's route count (`k_routes` = 1).
pub fn probe_roadnet(tr: &Tracer, ds: &Dataset, rep: &mut Report) -> roadnet::Result<()> {
    for _ in 0..3 {
        tr.span("roadnet.ksp", || -> roadnet::Result<()> {
            for (_, pair) in ds.ods.iter() {
                let from = ds.net.region_anchor(pair.origin)?;
                let to = ds.net.region_anchor(pair.destination)?;
                if from != to {
                    std::hint::black_box(k_shortest_paths(&ds.net, from, to, 1, &|l| {
                        l.free_flow_time_s()
                    })?);
                }
            }
            Ok(())
        })?;
    }
    rep.layer("roadnet.ksp_ms", median_ms(tr, "roadnet.ksp"));
    Ok(())
}

/// `simulator.*`: `Simulation::new` and `Simulation::run` on the
/// dataset's ground-truth demand.
pub fn probe_simulator(tr: &Tracer, ds: &Dataset, rep: &mut Report) -> roadnet::Result<()> {
    for _ in 0..3 {
        let mut sim = tr.span("simulator.new", || {
            Simulation::new(&ds.net, &ds.ods, ds.sim_config.clone())
        })?;
        std::hint::black_box(tr.span("simulator.run", || sim.run(&ds.groundtruth_tod))?);
    }
    let run_ms = median_ms(tr, "simulator.run");
    let ticks = ds.sim_config.total_ticks() as f64;
    rep.layer("simulator.new_ms", median_ms(tr, "simulator.new"));
    rep.layer("simulator.run_ms", run_ms);
    rep.layer("simulator.ticks", ticks);
    rep.layer("simulator.ticks_per_s", ticks / (run_ms / 1e3).max(1e-12));
    Ok(())
}

/// One kernel of `probe_neural`: span and metric names at `nproc` threads
/// and at one thread, output shape, and the call.
type KernelCase<'a> = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    (usize, usize),
    &'a (dyn Fn(&mut Matrix) + Sync),
);

/// `neural.*`: the three matmul kernels at the V2S stage's LSTM shapes —
/// `rows` batch rows (links x corpus samples) against the `hidden` x
/// `4 * hidden` gate weights — at `nproc` threads and at one thread.
pub fn probe_neural(tr: &Tracer, rows: usize, hidden: usize, nproc: usize, rep: &mut Report) {
    const CALLS: u64 = 200;
    let gates = 4 * hidden;
    let fill = |r: usize, c: usize, salt: usize| {
        Matrix::from_fn(r, c, |i, j| {
            ((i * 31 + j * 17 + salt) % 97) as f64 / 97.0 - 0.5
        })
    };
    let x = fill(rows, hidden, 1);
    let w = fill(hidden, gates, 2);
    let d = fill(rows, gates, 3);
    let flops_per_call = (2 * rows * hidden * gates) as f64;
    let mut total_flops = 0.0;
    let kernels: [KernelCase<'_>; 3] = [
        (
            "neural.matmul",
            "neural.matmul_1t",
            "neural.matmul_gflops",
            "neural.matmul_1t_gflops",
            (rows, gates),
            &|out| x.matmul_into(&w, out),
        ),
        (
            "neural.matmul_at_b",
            "neural.matmul_at_b_1t",
            "neural.matmul_at_b_gflops",
            "neural.matmul_at_b_1t_gflops",
            (hidden, gates),
            &|out| x.matmul_at_b_into(&d, out),
        ),
        (
            "neural.matmul_a_bt",
            "neural.matmul_a_bt_1t",
            "neural.matmul_a_bt_gflops",
            "neural.matmul_a_bt_1t_gflops",
            (rows, hidden),
            &|out| d.matmul_a_bt_into(&w, out),
        ),
    ];
    let gflops = |span: &str| flops_per_call / (stats::median(&tr.per_op_s(span)) * 1e9);
    for (span_n, span_1, metric_n, metric_1, (r, c), kernel) in kernels {
        for (span, par) in [
            (span_n, Parallelism::Threads(nproc)),
            (span_1, Parallelism::Serial),
        ] {
            par.run(|| {
                tr.span_ops(span, CALLS, || {
                    let mut out = Matrix::zeros(r, c);
                    for _ in 0..CALLS {
                        kernel(&mut out);
                    }
                    std::hint::black_box(out);
                })
            });
            total_flops += flops_per_call * CALLS as f64;
        }
        rep.layer(metric_n, gflops(span_n));
        rep.layer(metric_1, gflops(span_1));
    }
    rep.layer("neural.flops", total_flops);
}
