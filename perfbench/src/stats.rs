//! Order statistics and process probes (memory, CPU time) read from
//! `/proc`.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks — the same rule as NumPy's default and
/// Python's `statistics.quantiles(method="inclusive")`.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values` (see [`percentile`]).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time the calling thread has run, ns (first field of
/// `/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// CPU time of every live thread of this process, ns.
pub fn process_cpu_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .flatten()
                .map(|task| schedstat_ns(&task.path().join("schedstat").to_string_lossy()))
                .sum()
        })
        .unwrap_or(0)
}

fn schedstat_ns(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_closest_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        // Rank 0.9 × 4 = 3.6 → 4 + 0.6 × (5 − 4).
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_matches_python_inclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4, method="inclusive")
        // == [3.25, 5.5, 7.75]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.25), 3.25);
        assert_eq!(percentile(&v, 0.5), 5.5);
        assert_eq!(percentile(&v, 0.75), 7.75);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_rejects_empty_samples() {
        percentile(&[], 0.5);
    }

    #[test]
    fn process_probes_read_proc() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        let started = std::time::Instant::now();
        while started.elapsed() < std::time::Duration::from_millis(30) {
            std::hint::black_box(started.elapsed());
        }
        // A running thread's counters are brought up to date when it
        // is switched out.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let own = thread_cpu_ns();
        assert!(own >= 10_000_000, "{own} ns after a 30 ms spin");
        assert!(process_cpu_ns() >= own);
    }
}
