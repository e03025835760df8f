//! The serving phase that closes every `stream-hangzhou` run: a
//! `serve::Server` with one worker thread over a verified Hangzhou
//! artifact, driven open-loop over one keep-alive connection at a fixed
//! rate, cycling `serve::load::PATHS`. A publisher saves a new artifact
//! version at a fixed cadence, so the watcher hot-swaps the served view
//! mid-phase. No training runs here: HTTP parsing, routing and response
//! writing do the work.
//!
//! It reports read latency, view-build time and the per-layer serve and
//! checkpoint metrics, and checks every response; it gates nothing,
//! because its loopback latency swings with the host from run to run
//! (see `README.md`).

use crate::trace::Tracer;
use crate::{stats, Ctx, Report, Res};
use checkpoint::{
    ArtifactBuilder, ArtifactStore, Provenance, RetryPolicy, SnapshotSource, SystemClock,
};
use datagen::Dataset;
use ovs_core::artifact::OVS_MODEL_KIND;
use ovs_core::estimator::tod_to_matrix;
use serve::http::{self, ReadOutcome};
use serve::load::PATHS;
use serve::{router, ModelView, ServeOptions, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Open-loop arrival rate, requests per second: about a tenth of what one
/// worker sustains, so queueing stays rare and latency measures service.
const RATE_PER_S: f64 = 2000.0;
/// A new artifact version is saved this often.
const PUBLISH_EVERY: Duration = Duration::from_millis(1000);
/// Watcher poll interval of the server.
const POLL_MS: u64 = 50;
/// In-process request cycles (each one pass over `PATHS`) of the traced
/// run's HTTP-layer timings.
const CYCLES: usize = 2000;
/// Hot-swap view builds timed after the open-loop phase.
const VIEW_BUILDS: usize = 20;
const FAMILY: &str = "serve-bench";

/// Artifact version `v`: the ground-truth TOD scaled by `1 + v / 100`, so
/// every version has its own bytes and ETag.
fn artifact(ds: &Dataset, v: u64) -> ArtifactBuilder {
    let mut tod = ds.groundtruth_tod.clone();
    tod.scale(1.0 + v as f64 / 100.0);
    let mut b = ArtifactBuilder::new(OVS_MODEL_KIND);
    b.add_matrix("recovered_tod", &tod_to_matrix(&tod));
    b
}

/// A saved version: its ETag and when its save returned.
struct Published {
    etag: String,
    saved: Instant,
}

/// One open-loop request.
struct Sent {
    path: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
    etag: Option<String>,
}

/// Saves version `v` and snapshots the family head, in spans.
fn publish(
    tr: &Tracer,
    store: &ArtifactStore,
    ds: &Dataset,
    v: u64,
    seed: u64,
) -> Result<Published, String> {
    let prov = Provenance::new(OVS_MODEL_KIND, "{}", seed);
    tr.span("checkpoint.save", || {
        store.save_versioned(FAMILY, &artifact(ds, v), &prov)
    })
    .map_err(|e| e.to_string())?;
    let saved = Instant::now();
    let snap = tr
        .span("checkpoint.snapshot", || {
            store.latest_good(FAMILY, &RetryPolicy::default(), &SystemClock)
        })
        .map_err(|e| e.to_string())?
        .ok_or("published family has no good version")?;
    Ok(Published {
        etag: snap.etag(),
        saved,
    })
}

/// Serves `ds` for `seconds` under open-loop load and hot-swaps, adding
/// the phase's checks, readouts and (traced) layer metrics to `rep`.
pub fn phase(ctx: &Ctx, ds: &Dataset, seconds: f64, rep: &mut Report) -> Res<()> {
    let tr = &ctx.tracer;
    // Every thread started from here on (server worker, watcher,
    // publisher) inherits the pin; see `pin`.
    match crate::pin::pin_to_one_cpu() {
        Some(cpu) => rep.readout("pinned_cpu", cpu as f64, "index"),
        None => eprintln!("perfbench: could not pin the serving threads; latency may be bimodal"),
    }
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        poll_ms: POLL_MS,
    };
    let store = ArtifactStore::open(ctx.scratch.join("serve"))?;
    let first = publish(tr, &store, ds, 0, ctx.seed)?;
    let server = tr.span("serve.start", || {
        Server::start(
            store.clone(),
            SnapshotSource::Family(FAMILY.into()),
            ds.clone(),
            &opts,
        )
    })?;

    let published = Mutex::new(vec![first]);
    let stop = AtomicBool::new(false);
    let (sent, io_failures) = std::thread::scope(|s| {
        let publisher = s.spawn(|| -> Result<(), String> {
            let mut next = Instant::now() + PUBLISH_EVERY;
            for v in 1.. {
                while Instant::now() < next {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                let p = publish(tr, &store, ds, v, ctx.seed)?;
                published.lock().map_err(|e| e.to_string())?.push(p);
                next += PUBLISH_EVERY;
            }
            Ok(())
        });
        let driven = drive(server.addr(), seconds);
        stop.store(true, Ordering::SeqCst);
        let joined = publisher
            .join()
            .map_err(|_| "publisher panicked".to_string());
        joined.and_then(|r| r).and(driven)
    })?;
    server.shutdown();
    let published = published.into_inner().map_err(|e| e.to_string())?;

    // The hot-swap's work on the watcher thread, timed on this one.
    let snap = store
        .latest_good(FAMILY, &RetryPolicy::default(), &SystemClock)?
        .ok_or("published family has no good version")?;
    let shared = Arc::new(ds.clone());
    let mut builds_s = Vec::new();
    let mut view = None;
    for _ in 0..VIEW_BUILDS {
        let t = Instant::now();
        view = Some(tr.span("serve.view_build", || {
            ModelView::build(snap.clone(), shared.clone())
        })?);
        builds_s.push(t.elapsed().as_secs_f64());
    }

    let sent = &sent;
    let failed = check_responses(rep, sent, io_failures, &published);
    rep.attempted += sent.len() as u64 + io_failures;
    rep.failed += failed;

    let lat: Vec<f64> = sent
        .iter()
        .map(|r| (r.done - r.due).as_secs_f64())
        .collect();
    let late_max = sent
        .iter()
        .map(|r| (r.sent - r.due).as_secs_f64())
        .fold(0.0, f64::max);
    let view_build_ms = stats::median(&builds_s) * 1e3;
    rep.readout("read_p50_ms", stats::median(&lat) * 1e3, "ms");
    rep.readout("read_p90_ms", stats::quantile(&lat, 0.9) * 1e3, "ms");
    rep.readout("read_p99_ms", stats::quantile(&lat, 0.99) * 1e3, "ms");
    rep.readout(
        "read_fail_share",
        failed as f64 / sent.len().max(1) as f64,
        "ratio",
    );
    rep.readout("gen_late_ms_max", late_max * 1e3, "ms");
    rep.readout("view_build_ms", view_build_ms, "ms");
    rep.readout("swaps", published.len().saturating_sub(1) as f64, "count");
    if tr.enabled() {
        rep.layer("serve.read_p90_ms", stats::quantile(&lat, 0.9) * 1e3);
        rep.layer("serve.read_p99_ms", stats::quantile(&lat, 0.99) * 1e3);
        rep.layer("serve.gen_late_ms_max", late_max * 1e3);
        rep.layer("serve.swap_visible_ms", swap_visible_ms(sent, &published));
        rep.layer("serve.view_build_ms", view_build_ms);
        rep.layer(
            "checkpoint.save_ms",
            stats::median(&tr.durations_s("checkpoint.save")) * 1e3,
        );
        rep.layer(
            "checkpoint.snapshot_ms",
            stats::median(&tr.durations_s("checkpoint.snapshot")) * 1e3,
        );
        rep.layer(
            "checkpoint.artifact_bytes",
            artifact(ds, 0).to_bytes().len() as f64,
        );
        http_layers(tr, rep, &view.ok_or("no view built")?)?;
    }
    Ok(())
}

/// Every response is 200 or 304, and every cacheable one carries the
/// ETag of a version already saved when it completed, never older than
/// the one before it. Returns the failed requests.
fn check_responses(
    rep: &mut Report,
    sent: &[Sent],
    io_failures: u64,
    published: &[Published],
) -> u64 {
    let mut newest = 0;
    let mut etags_ok = true;
    let mut bad_status = 0;
    for r in sent {
        if r.status != 200 && r.status != 304 {
            bad_status += 1;
        }
        if PATHS[r.path] == "/healthz" {
            continue;
        }
        let version = r
            .etag
            .as_ref()
            .and_then(|e| published.iter().position(|p| &p.etag == e));
        match version {
            Some(v) if published[v].saved <= r.done && v >= newest => newest = v,
            _ => etags_ok = false,
        }
    }
    let failed = io_failures + bad_status;
    rep.check(
        "every response is 200 or 304 with no IO failure",
        failed == 0,
    );
    rep.check(
        "every ETag is a saved version, never older than the last served",
        etags_ok,
    );
    rep.check("the served view hot-swapped at least once", newest >= 1);
    failed
}

/// Median time from a version's save to the first response carrying it.
fn swap_visible_ms(sent: &[Sent], published: &[Published]) -> f64 {
    let delays: Vec<f64> = published
        .iter()
        .skip(1)
        .filter_map(|p| {
            sent.iter()
                .find(|r| r.etag.as_deref() == Some(p.etag.as_str()))
                .map(|r| r.done.saturating_duration_since(p.saved).as_secs_f64() * 1e3)
        })
        .collect();
    stats::median(&delays)
}

type Conn = (TcpStream, BufReader<TcpStream>);

fn connect(addr: SocketAddr) -> Result<Conn, String> {
    let open = || -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok((stream, reader))
    };
    open().map_err(|e| format!("connect {addr}: {e}"))
}

/// The open-loop client: for `seconds`, sends `RATE_PER_S` requests per
/// second over one keep-alive connection on a fixed schedule, whatever
/// the state of the previous one, each timed from when it was due.
/// Returns the completed requests and the IO failures.
fn drive(addr: SocketAddr, seconds: f64) -> Result<(Vec<Sent>, u64), String> {
    let mut conn = connect(addr)?;
    let mut last_etag: Vec<Option<String>> = vec![None; PATHS.len()];
    let mut out = Vec::new();
    let mut failures = 0;
    let mut body = Vec::new();
    let period = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let start = Instant::now();
    for j in 0..(seconds * RATE_PER_S) as u32 {
        let due = start + period * j;
        wait_until(due);
        let j = j as usize;
        let path = j % PATHS.len();
        // Every other pass over the paths revalidates with the last ETag
        // seen, so both 200 and 304 responses are exercised.
        let validator = match &last_etag[path] {
            Some(e) if (j / PATHS.len()) % 2 == 1 => format!("If-None-Match: {e}\r\n"),
            _ => String::new(),
        };
        let request = format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\n{validator}\r\n",
            PATHS[path]
        );
        let sent = Instant::now();
        match exchange(&mut conn, request.as_bytes(), &mut body) {
            Ok((status, etag)) => {
                if etag.is_some() {
                    last_etag[path] = etag.clone();
                }
                out.push(Sent {
                    path,
                    due,
                    sent,
                    done: Instant::now(),
                    status,
                    etag,
                });
            }
            Err(_) => {
                failures += 1;
                conn = connect(addr)?;
            }
        }
    }
    Ok((out, failures))
}

/// Sleeps until shortly before `due`, then spins, so requests leave on
/// time to within a few microseconds.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Writes one request and reads its response; returns status and ETag.
fn exchange(
    conn: &mut Conn,
    request: &[u8],
    body: &mut Vec<u8>,
) -> std::io::Result<(u16, Option<String>)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    conn.0.write_all(request)?;
    let reader = &mut conn.1;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    let mut etag = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("eof in headers"));
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            match k.to_ascii_lowercase().as_str() {
                "content-length" => length = v.trim().parse().map_err(|_| bad("bad length"))?,
                "etag" => etag = Some(v.trim().to_string()),
                _ => {}
            }
        }
    }
    body.resize(length, 0);
    reader.read_exact(body)?;
    Ok((status, etag))
}

/// The HTTP layer in-process against `view`: parse, route and write,
/// each timed as one batch over `CYCLES` passes of `PATHS`.
fn http_layers(tr: &Tracer, rep: &mut Report, view: &ModelView) -> Res<()> {
    let parse = |bytes: &str| -> Res<http::Request> {
        match http::read_request(&mut bytes.as_bytes())? {
            ReadOutcome::Request(r) => Ok(r),
            _ => Err("request bytes did not parse".into()),
        }
    };
    let raw: Vec<String> = PATHS
        .iter()
        .map(|p| format!("GET {p} HTTP/1.1\r\nHost: bench\r\n\r\n"))
        .collect();
    let mut out = Vec::with_capacity(1 << 20);
    let ops = (CYCLES * PATHS.len()) as u64;
    let mut reqs = Vec::new();
    tr.span_ops("serve.parse", ops, || -> Res<()> {
        for _ in 0..CYCLES {
            reqs = raw.iter().map(|b| parse(b)).collect::<Res<_>>()?;
        }
        Ok(())
    })?;
    let mut resps = Vec::new();
    tr.span_ops("serve.route", ops, || {
        for _ in 0..CYCLES {
            resps = reqs.iter().map(|r| router::handle(view, r)).collect();
        }
    });
    let mut bytes = 0;
    tr.span_ops("serve.write", ops, || -> std::io::Result<()> {
        for _ in 0..CYCLES {
            bytes = 0;
            for r in &resps {
                out.clear();
                http::write_response(&mut out, r, true, false)?;
                bytes += out.len();
            }
        }
        Ok(())
    })?;
    rep.check(
        "in-process responses are all 200",
        resps.iter().all(|r| r.status == 200),
    );
    for (span, metric) in [
        ("serve.parse", "serve.parse_us"),
        ("serve.route", "serve.route_us"),
        ("serve.write", "serve.write_us"),
    ] {
        rep.layer(metric, stats::median(&tr.per_op_s(span)) * 1e6);
    }
    rep.layer("serve.response_bytes", bytes as f64);
    Ok(())
}
