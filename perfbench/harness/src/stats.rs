//! Exact order statistics over raw samples, and process memory.

/// The nearest-rank `p`-th percentile (0 < p ≤ 100) of `samples`: the
/// smallest sample with at least `p`% of all samples at or below it.
/// `None` on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The arithmetic mean (0 on an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the peak resident set size to the current one, so
/// [`peak_rss_mb`] reports the peak of what runs next. Best effort: on a
/// kernel without `clear_refs` the peak stays the process's lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time (user + system) this process has used, every thread
/// included, in seconds. Linux reports it in 1/100 s ticks.
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // utime and stime are the 14th and 15th fields; the command name
    // before them is parenthesised and may hold spaces.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / 100.0)
}

/// CPU time the hypervisor took from this machine's CPUs (the `steal`
/// column of `/proc/stat`), in seconds.
fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks as f64 / 100.0)
}

/// This process's CPU time and the host's steal time, read together so
/// a measured window can report both: a wall-time figure taken while the
/// host steals CPU or runs our code slower is slow for reasons outside
/// the program.
#[derive(Clone, Copy)]
pub struct CpuClock {
    cpu: f64,
    steal: f64,
}

impl CpuClock {
    pub fn now() -> CpuClock {
        CpuClock {
            cpu: cpu_seconds().unwrap_or(f64::NAN),
            steal: steal_seconds().unwrap_or(f64::NAN),
        }
    }

    /// (process CPU seconds, host steal seconds) since `self`.
    pub fn since(self) -> (f64, f64) {
        let now = CpuClock::now();
        (now.cpu - self.cpu, now.steal - self.steal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
