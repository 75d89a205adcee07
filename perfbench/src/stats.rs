//! Measurement helpers that never call into the simulator: a latency
//! histogram, order statistics, a streaming byte digest, span records,
//! the host-speed reference kernel and the process's peak resident set.

use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::sync::OnceLock;
use std::time::Instant;

/// Sub-buckets per power of two: a reported percentile lies within 1/16
/// (6.25%) of the true value.
const SUB_BITS: u32 = 4;

/// Log-linear histogram of nanosecond durations, O(1) memory however many
/// calls it records (the traced paper grid makes ~6M decide calls).
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; 64 << SUB_BITS],
            total: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let sub = (ns >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        ((((msb - SUB_BITS + 1) as u64) << SUB_BITS) | sub) as usize
    }

    /// Midpoint of bucket `idx`, nanoseconds.
    fn midpoint(idx: usize) -> f64 {
        let idx = idx as u64;
        if idx < 1 << SUB_BITS {
            return idx as f64;
        }
        let shift = (idx >> SUB_BITS) - 1;
        let low = ((1 << SUB_BITS) | (idx & ((1 << SUB_BITS) - 1))) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Nearest-rank quantile `q` in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(idx);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Nearest-rank quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The middle value of `values`, or the mean of the middle two when their
/// count is even (0 when empty), so two samples both count.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Streaming 64-bit digest of a byte stream. The value depends only on
/// the bytes, not on how writes split them, so two passes that emit the
/// same trace agree however their sinks chunk the output. Not
/// cryptographic: it detects accidental divergence.
#[derive(Clone, Default)]
pub struct Digest {
    state: u64,
    tail: [u8; 8],
    fill: usize,
    len: u64,
}

impl Digest {
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.fill > 0 {
            let take = (8 - self.fill).min(bytes.len());
            self.tail[self.fill..self.fill + take].copy_from_slice(&bytes[..take]);
            self.fill += take;
            bytes = &bytes[take..];
            if self.fill < 8 {
                return;
            }
            self.mix(u64::from_le_bytes(self.tail));
            self.fill = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("chunk of 8")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.fill = rest.len();
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn value(&self) -> u64 {
        let mut d = self.clone();
        let mut last = [0u8; 8];
        last[..d.fill].copy_from_slice(&d.tail[..d.fill]);
        d.mix(u64::from_le_bytes(last));
        d.mix(d.len);
        d.state
    }
}

/// A writer that keeps only the digest and length of what it is given:
/// the traced pass's observed trace output without ~200 MB of storage.
#[derive(Default)]
pub struct DigestWriter(pub Digest);

impl io::Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A writer that counts what it is given and discards it: the timed
/// observed runs' trace output, at no cost of the benchmark's own.
#[derive(Default)]
pub struct CountingWriter(pub u64);

impl io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Nanoseconds since the first call in this process: the shared clock of
/// every recorded span.
pub fn epoch_ns(t: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// One layer-boundary span of the traced pass. `parent` is the id of the
/// span that caused it (0 for a root); `counts` are the calls made
/// through wrapped seams while it was open.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub run: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}",
            self.id, self.parent, self.name, self.start_ns, self.dur_ns
        );
        if let Some(run) = self.run {
            out += &format!(",\"run\":{run}");
        }
        for (k, v) in &self.counts {
            out += &format!(",\"{k}\":{v}");
        }
        out.push('}');
        out
    }
}

/// Records the reference kernel formats per repetition: about 0.7 ms on
/// an uncontended core of the development host.
const REFERENCE_RECORDS: u64 = 4096;
/// Repetitions per reference measurement; their median is kept.
const REFERENCE_REPS: usize = 8;

/// One repetition of the reference kernel, in milliseconds: JSON-like
/// records of integers and floats formatted into a reused string. Its
/// code is the benchmark's own, so no change to the program moves it.
/// On the development host it slows with the host as the simulator does,
/// where a pure arithmetic chain or a pointer chase does not: over a
/// spell that slowed simulator runs 1.78x it slowed 1.63x, a
/// multiply-xorshift chain 1.38x and a 32 MiB pointer chase 1.02x.
fn reference_rep(buf: &mut String) -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
    for i in 0..REFERENCE_RECORDS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        buf.clear();
        let _ = write!(
            buf,
            "{{\"t\":{i},\"job\":{},\"v\":{:.3}}}",
            z % 100_000,
            (z >> 40) as f64 / 7.0
        );
        black_box(&*buf);
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// The host's speed as the reference kernel sees it on `threads`
/// threads at once (one per worker the measured work runs on), in
/// milliseconds: the harmonic mean of each thread's median repetition.
/// Workers share a batch, so a worker on a slowed core does less of it;
/// the batch's time follows the sum of the workers' speeds, not their
/// mean time.
pub fn reference_ms(threads: usize) -> f64 {
    let one = || {
        let mut buf = String::with_capacity(64);
        let reps: Vec<f64> = (0..REFERENCE_REPS)
            .map(|_| reference_rep(&mut buf))
            .collect();
        median(&reps)
    };
    if threads <= 1 {
        return one();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(one)).collect();
        let speed: f64 = handles
            .into_iter()
            .map(|h| 1.0 / h.join().expect("reference kernel thread panicked"))
            .sum();
        threads as f64 / speed
    })
}

/// Reset the kernel's peak-RSS mark (VmHWM) to the current resident set,
/// so the next reading covers only what follows. `false` where
/// `/proc/self/clear_refs` is missing or not writable.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MiB (VmHWM), `None` without
/// `/proc`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_contiguous_and_tight() {
        for ns in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            33,
            100,
            1_000,
            123_456,
            u64::MAX / 2,
        ] {
            let mut h = Histogram::new();
            h.record(ns);
            let mid = h.quantile_ns(0.5);
            assert!(
                (mid - ns as f64).abs() <= ns as f64 / 16.0 + 0.5,
                "{ns} -> {mid}"
            );
        }
    }

    #[test]
    fn digest_ignores_write_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut whole = Digest::default();
        whole.update(&data);
        let mut pieces = Digest::default();
        for chunk in data.chunks(13) {
            pieces.update(chunk);
        }
        assert_eq!(whole.value(), pieces.value());
        let mut other = Digest::default();
        other.update(&data[1..]);
        assert_ne!(whole.value(), other.value());
    }

    #[test]
    fn quantiles_and_medians() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&v[..4]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
