//! Order statistics and host probes the benchmark reports with: the
//! median, the tail-percentile rule, the peak resident set size, and
//! the process CPU clock with the reference kernel that turns it into
//! nominal seconds.

/// Percentiles the tail metric may report, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie strictly beyond a percentile's value for the
/// tail metric to report that percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median (mean of the two middle values for an even count); NaN for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// product is nudged down before rounding up so that a rank landing
/// exactly on an integer (99.9% of 10 000) is not pushed one past it by
/// the rounding of `p / 100`.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A tail percentile as reported: which percentile, its value, and the
/// sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (from [`TAIL_LADDER`]).
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it (nearest rank), or
/// `None` when there are too few samples for even the median.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = nearest_rank(p, n);
        (n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            samples: n,
        })
    })
}

/// Peak resident set size in MB (2^20 bytes) from the text of a Linux
/// `/proc/<pid>/status` file: its `VmHWM` line, which the kernel
/// writes in kB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// CPU seconds this process has used so far, over all its threads,
/// finished ones included (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall
/// time it does not advance while the process waits for a core, and
/// with paravirtual steal accounting not while the hypervisor runs
/// another guest on it.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds [`reference_kernel`] takes on the nominal host: about
/// what one call takes on an unloaded core of an Intel Xeon (family 6,
/// model 207) KVM guest.
pub const REF_NOMINAL_S: f64 = 0.013;

/// Converts `cpu_s` host CPU seconds into nominal seconds: the CPU
/// seconds the same work would take on a host that runs
/// [`reference_kernel`] in [`REF_NOMINAL_S`]. The host's speed is read
/// from the reference kernel timed just before and just after the work,
/// so a host that slows down (a busy neighbour on the core, a lower
/// clock, contended memory) slows both alike and the quotient holds.
pub fn nominal_s(cpu_s: f64, ref_before_s: f64, ref_after_s: f64) -> f64 {
    cpu_s * REF_NOMINAL_S / (0.5 * (ref_before_s + ref_after_s))
}

/// Side of the reference kernel's matrix: 96 x 96 f64 (72 KiB) stays in
/// a core's L2, like the thermal operator and the LP tableaux.
const REF_N: usize = 96;
/// Rounds of the reference kernel per call.
const REF_ROUNDS: usize = 3000;

/// The reference kernel: fixed work in the simulator's instruction mix
/// (a dense f64 matrix-vector product, `exp` and `ln` over its result,
/// and random compare-and-swap steps like an annealer's moves). It does
/// not call the simulator, so a change to the simulator leaves its time
/// alone; it returns a checksum so that the work cannot be elided.
pub fn reference_kernel() -> f64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let m: Vec<f64> = (0..REF_N * REF_N)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 / REF_N as f64)
        .collect();
    let mut x = vec![1.0f64; REF_N];
    let mut y = vec![0.0f64; REF_N];
    let mut acc = 0.0f64;
    for _ in 0..std::hint::black_box(REF_ROUNDS) {
        for (yi, row) in y.iter_mut().zip(m.chunks_exact(REF_N)) {
            *yi = row.iter().zip(&x).map(|(a, b)| a * b).sum();
        }
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = (0.5 * yi).exp() + (1.0 + yi).ln();
        }
        for _ in 0..REF_N {
            let r = next();
            let (i, j) = (
                (r % REF_N as u64) as usize,
                ((r >> 32) % REF_N as u64) as usize,
            );
            if x[i] > x[j] {
                x.swap(i, j);
                acc += x[i];
            }
        }
        let norm = x.iter().sum::<f64>() / REF_N as f64;
        x.iter_mut().for_each(|v| *v /= norm);
    }
    std::hint::black_box(acc)
}

/// CPU seconds one call of [`reference_kernel`] takes.
pub fn reference_cpu_s() -> f64 {
    let c = process_cpu_s();
    reference_kernel();
    process_cpu_s() - c
}

/// This process's peak resident set size in MB, if the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_mb(&status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        // 19 samples: the median's nearest rank is 10, leaving only 9
        // beyond it.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        // 20 samples: exactly 10 beyond the median.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&twenty).expect("median qualifies");
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 10.0, 20));
    }

    #[test]
    fn tail_climbs_the_ladder_with_sample_count() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).expect("enough samples");
        // p95 has only 5 beyond it; p90 has exactly 10.
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&thousand).expect("enough samples");
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        let lots: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&lots).map(|t| t.percentile), Some(99.9));
    }

    #[test]
    fn nominal_seconds_cancel_host_speed() {
        // On the nominal host the conversion is the identity.
        let at_nominal = nominal_s(2.0, REF_NOMINAL_S, REF_NOMINAL_S);
        assert!((at_nominal - 2.0).abs() < 1e-12);
        // A host 1.8x slower takes 1.8x the CPU time for the work and
        // for the reference alike.
        let slow = nominal_s(3.6, 1.8 * REF_NOMINAL_S, 1.8 * REF_NOMINAL_S);
        assert!((slow - 2.0).abs() < 1e-12);
        // The speed is the mean of the readings on either side.
        let drifting = nominal_s(3.0, REF_NOMINAL_S, 2.0 * REF_NOMINAL_S);
        assert!((drifting - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reference_kernel_is_deterministic_and_timed() {
        assert_eq!(reference_kernel().to_bits(), reference_kernel().to_bits());
        let t = reference_cpu_s();
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn vm_hwm_parses_kilobytes_into_megabytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
    }

    #[test]
    fn vm_hwm_rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12\n"), None);
    }
}
