//! Sample statistics and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Linear-interpolation quantile (`q` in 0..=1) of `samples`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Smoothed quantile: the mean of the samples ranked between the
/// `q - w` and `q + w` quantiles; 0 when empty. Unit latencies come in
/// steps (the daemon's 2 ms stream poll, and one cost per profile and
/// scheme), so a plain quantile that sits on a step jumps a whole step
/// when the host runs a few percent faster; the band's mean moves with
/// the share of samples on each side of the step instead.
pub fn band_quantile(samples: &[f64], q: f64, w: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let last = (s.len() - 1) as f64;
    let lo = ((q - w).clamp(0.0, 1.0) * last).floor() as usize;
    let hi = ((q + w).clamp(0.0, 1.0) * last).ceil() as usize;
    s[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
}

/// Median host time of `f` over five calls, in ns: probes time whole
/// batches of operations, so one preempted call does not set the value.
pub fn median_ns(mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&reps)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host times in nanoseconds, converted to milliseconds.
pub fn ns_to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric; a repeated name replaces the earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(e) => *e = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    /// Every metric, in insertion order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The benchmark's last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Escapes `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn band_quantiles_average_their_band() {
        let s: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(band_quantile(&s, 0.5, 0.1), 50.0);
        assert_eq!(band_quantile(&s, 0.9, 0.05), 90.0);
        assert_eq!(band_quantile(&[7.0], 0.9, 0.05), 7.0);
        assert_eq!(band_quantile(&[], 0.5, 0.1), 0.0);
        // Half the samples one step up: the plain median sits on the step,
        // the band's mean halfway across it.
        let steps = [[2.0; 50], [4.0; 50]].concat();
        assert_eq!(band_quantile(&steps, 0.5, 0.1), 3.0);
    }

    #[test]
    fn metrics_serialize_every_digit() {
        let mut m = Metrics::default();
        m.set("a", 1.0 / 3.0, "ms");
        m.set("b", 2.0, "count");
        m.set("a", 0.5, "ms");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 0.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}"
        );
    }
}
