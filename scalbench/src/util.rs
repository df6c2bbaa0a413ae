//! Small self-contained helpers: a seeded generator, order statistics,
//! verdict digests, a JSON writer, and the process memory probe.
//!
//! Nothing here calls into the SCAL crates, so the benchmark's bookkeeping
//! cannot drift with the code it measures.

use std::fmt::Write as _;
use std::time::Duration;

/// SplitMix64: a tiny, fully specified generator. Inputs are derived from
/// the `--seed` argument through it, so a seed names the same inputs on
/// every machine and every commit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that workloads
    /// drawing from one seed do not share sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi > lo);
        lo + self.next_u64() % (hi - lo)
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `v` in a seeded order. Workloads draw their sizes as a fixed multiset
    /// in shuffled order, so a seed changes the inputs but not the amount
    /// of work.
    pub fn shuffled<T: Clone>(&mut self, v: &[T]) -> Vec<T> {
        let mut out = v.to_vec();
        for i in (1..out.len()).rev() {
            out.swap(i, self.range(0, i as u64 + 1) as usize);
        }
        out
    }

    /// `k` distinct indices from `0..n`, in ascending order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.range(0, (n - i) as u64) as usize;
            idx.swap(i, j);
        }
        let mut out = idx[..k].to_vec();
        out.sort_unstable();
        out
    }
}

/// FNV-1a over a stream of words: the verdict digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    pub fn bytes(&mut self, s: &[u8]) -> &mut Self {
        self.u64(s.len() as u64);
        for &b in s {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The `q`-quantile (0..=1) of `sorted` by linear interpolation between
/// closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The tail rule: the highest percentile that still has at least ten samples
/// beyond it. Returns `(percentile, value)`; with 20 samples or fewer that is
/// the median.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n <= 20 {
        return (50.0, quantile(&s, 0.5));
    }
    // Rank n-11 (0-based) leaves exactly ten samples above it.
    let q = (n - 11) as f64 / (n - 1) as f64;
    (q * 100.0, quantile(&s, q))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escapes `s` as a JSON string literal body.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number; non-finite values (never expected) become 0 so the output
/// always parses.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Builder for one flat JSON object.
#[derive(Debug, Default)]
pub struct Obj(String);

impl Obj {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{}\":", json_escape(k));
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.0.push_str(&json_num(v));
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let _ = write!(self.0, "\"{}\"", json_escape(v));
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.0.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.0.push_str(v);
        self
    }

    pub fn finish(self) -> String {
        if self.0.is_empty() {
            "{}".to_owned()
        } else {
            self.0 + "}"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, value) = tail(&v);
        assert_eq!(value, 989.0);
        assert!(p > 98.9 && p < 99.0);
        let beyond = v.iter().filter(|&&x| x > value).count();
        assert_eq!(beyond, 10);
        assert_eq!(tail(&v[..15]).0, 50.0);
    }

    #[test]
    fn rng_is_reproducible_and_seed_dependent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let s = Rng::new(3, 0).sample(100, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }
}
