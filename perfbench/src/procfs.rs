//! Process resource sampler over `/proc/self/{stat,status}`: user and
//! system CPU, peak resident set (`VmHWM`) and live thread count. Plain
//! file reads, no libc.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Kernel clock ticks per second for the `stat` CPU fields. Linux exports
/// `USER_HZ` = 100 on every architecture it supports.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// User-mode CPU seconds over all threads since process start.
    pub user_s: f64,
    /// Kernel-mode CPU seconds over all threads since process start.
    pub sys_s: f64,
    /// Live threads in the process.
    pub threads: u64,
    /// Peak resident set size in MiB.
    pub hwm_mb: f64,
}

impl Sample {
    /// Reads both files now. Fields that cannot be read stay 0.
    pub fn now() -> Self {
        let mut s = Sample::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // The command name (field 2) may hold spaces; fields after
            // its closing parenthesis are space-separated, starting at
            // field 3 (`state`).
            if let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
                // Fields 14 (utime), 15 (stime), 20 (num_threads) are at
                // offsets 11, 12 and 17 after field 3.
                s.user_s = num(11) / CLOCK_TICKS_PER_S;
                s.sys_s = num(12) / CLOCK_TICKS_PER_S;
                s.threads = num(17) as u64;
            }
        }
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(v) = line.strip_prefix("VmHWM:") {
                    let kb: f64 = v
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0.0);
                    s.hwm_mb = kb / 1024.0;
                }
            }
        }
        s
    }
}

/// Samples the process's live thread count every few milliseconds on a
/// background thread, so short-lived pool workers show up.
pub struct ThreadWatch {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl ThreadWatch {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut max = 0;
            while !flag.load(Ordering::SeqCst) {
                max = max.max(Sample::now().threads);
                std::thread::sleep(Duration::from_millis(5));
            }
            max
        });
        Self { stop, handle }
    }

    /// Stops sampling; returns the most threads seen, the watcher excluded.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().unwrap_or(0).saturating_sub(1)
    }
}
