//! What a run reports: the human-readable lines and the result JSON.

use crate::stats::{percentile, Summary};
use std::fmt::Write as _;

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Attempts, failures, metrics and report lines of one run.
#[derive(Default)]
pub struct Outcome {
    /// Iterations or queries attempted.
    pub attempted: u64,
    /// Iterations or queries that failed.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// The benchmark's own consistency checks (span nesting, traced vs
    /// untraced labels) that did not hold.
    pub check_failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
}

impl Outcome {
    /// Counts `failed` of `attempted`, keeping the first failure message.
    pub fn count(&mut self, attempted: u64, failed: u64, failure: Option<&String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(f) = failure {
            self.first_failure.get_or_insert_with(|| f.clone());
        }
    }

    /// Reports a plain value.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Reports the median of a timing, with a report line giving its tail
    /// percentile and sample count. No samples report 0.
    pub fn timing(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        if samples.is_empty() {
            self.metric(name, 0.0, unit);
            return;
        }
        let s = Summary::of(samples);
        self.report.push(s.line(name, unit));
        self.metric(name, s.median, unit);
    }

    /// Adds a report line summarizing `samples`, without a metric.
    pub fn note(&mut self, name: &str, samples: &[f64], unit: &str) {
        if !samples.is_empty() {
            self.report.push(Summary::of(samples).line(name, unit));
        }
    }

    /// The query metrics of a run: latency median and p90, and completed
    /// queries per second of `busy_s`.
    pub fn queries(&mut self, latency_ms: &[f64], busy_s: f64) {
        let s = Summary::of(latency_ms);
        self.report.push(s.line("query_latency_ms", "ms"));
        let mut sorted = latency_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.metric("query_p50_ms", s.median, "ms");
        self.metric("query_p90_ms", percentile(&sorted, 90.0), "ms");
        self.metric("queries_per_s", latency_ms.len() as f64 / busy_s, "1/s");
    }

    /// True if every output was right and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`,
    /// each value with all its digits.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            // JSON has no NaN or infinity; none is expected, and a zero
            // stands out in the report.
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// The process's peak resident set, in KiB (0 if unreadable).
pub fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Resets the peak resident set to the current one, so the peak read
/// afterwards belongs to the timed part of the run alone.
pub fn reset_vm_hwm() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The machine's CPU time so far, in clock ticks, from the aggregate `cpu`
/// line of `/proc/stat`: time spent running, and time stolen — time a
/// virtual CPU had work but its host ran something else.
///
/// On a shared host the stolen share comes and goes with other tenants'
/// load and stretches every wall time by about `1 / share`; it moved run
/// medians by up to 90% between runs of the same code. Timings are therefore
/// reported as wall time times the share the machine got while they were
/// taken ([`CpuTicks::share_since`]); without steal the share is 1 and they
/// are the wall times.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTicks {
    /// User, nice, system, irq and softirq ticks.
    busy: u64,
    /// Steal ticks.
    steal: u64,
}

impl CpuTicks {
    /// The current counters; zero if `/proc/stat` is unreadable, which
    /// makes every share 1.
    pub fn now() -> CpuTicks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().and_then(CpuTicks::parse))
            .unwrap_or_default()
    }

    /// Parses the aggregate `cpu` line of `/proc/stat`.
    fn parse(line: &str) -> Option<CpuTicks> {
        let mut f = line.split_whitespace();
        if f.next()? != "cpu" {
            return None;
        }
        // user nice system idle iowait irq softirq steal
        let v: Vec<u64> = f.take(8).map(|x| x.parse().ok()).collect::<Option<_>>()?;
        (v.len() == 8).then(|| CpuTicks {
            busy: v[0] + v[1] + v[2] + v[5] + v[6],
            steal: v[7],
        })
    }

    /// Of the CPU time the machine's work asked for since `earlier`, the
    /// share it got: busy over busy plus stolen ticks. `None` below
    /// [`MIN_TICKS`], where one tick more or less would swing it.
    pub fn share_since(self, earlier: CpuTicks) -> Option<f64> {
        let busy = self.busy.saturating_sub(earlier.busy);
        let steal = self.steal.saturating_sub(earlier.steal);
        (busy + steal >= MIN_TICKS).then(|| busy as f64 / (busy + steal) as f64)
    }
}

/// Fewest ticks a share is read from.
const MIN_TICKS: u64 = 10;

/// The CPU shares ([`CpuTicks::share_since`]) of the phases of one
/// iteration or session.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    /// During load and partition.
    pub setup: f64,
    /// During the cluster run: the solve or the query stream.
    pub run: f64,
    /// During the whole iteration or session.
    pub total: f64,
}

impl Shares {
    /// The shares of an iteration or session that started at `start`,
    /// finished set-up at `setup_end`, ran the cluster from `run_start` to
    /// `run_end` and ended at `end`. A phase too short to read takes the
    /// whole one's share; a whole one too short to read, 1.
    pub fn new(
        start: CpuTicks,
        setup_end: CpuTicks,
        run_start: CpuTicks,
        run_end: CpuTicks,
        end: CpuTicks,
    ) -> Shares {
        let total = end.share_since(start).unwrap_or(1.0);
        Shares {
            setup: setup_end.share_since(start).unwrap_or(total),
            run: run_end.share_since(run_start).unwrap_or(total),
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_is_one_json_object_with_the_four_keys() {
        let mut o = Outcome::default();
        o.count(3, 1, Some(&"node 5 labelled 1".to_string()));
        o.metric("solve_s", 0.125, "s");
        o.metric("comm.bytes", 1e6, "bytes");
        let j = o.result_json();
        assert_eq!(
            j,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"solve_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
             \"comm.bytes\": {\"value\": 1000000.0, \"unit\": \"bytes\"}}}"
        );
        assert_eq!(o.first_failure.as_deref(), Some("node 5 labelled 1"));
    }

    #[test]
    fn cpu_share_discounts_stolen_ticks() {
        let a = CpuTicks::parse("cpu  100 0 20 500 0 0 0 10 0 0").unwrap();
        let b = CpuTicks::parse("cpu  160 0 30 900 0 5 5 50 0 0").unwrap();
        assert_eq!((b.busy, b.steal), (200, 50));
        assert_eq!(b.share_since(a), Some(80.0 / (80.0 + 40.0)));
        assert_eq!(b.share_since(b), None);
        // Too few ticks to read a phase: it takes the whole one's share.
        let c = CpuTicks::parse("cpu  160 0 30 900 0 5 5 51 0 0").unwrap();
        let s = Shares::new(a, b, b, c, c);
        assert_eq!((s.setup, s.run), (80.0 / 120.0, 80.0 / 121.0));
        assert_eq!(s.total, s.run);
        assert_eq!(CpuTicks::parse("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(CpuTicks::parse("cpu 1 2 3"), None);
    }

    #[test]
    fn peak_rss_is_readable_and_resettable() {
        assert!(vm_hwm_kib() > 0);
        reset_vm_hwm().unwrap();
        assert!(vm_hwm_kib() > 0);
    }
}
