//! Exact order statistics over raw samples, and a tiny JSON writer.

use std::fmt::Write;

/// Nearest-rank percentile (`q` in 0..=1) of raw samples: always one of the
/// samples, never an interpolated bucket edge. `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Percentile `q` of each pass's own samples, then the median over passes:
/// one pass caught by a stall moves it little. `None` when every pass is
/// empty.
pub fn per_pass_percentile(passes: &[Vec<f64>], q: f64) -> Option<f64> {
    median(&passes.iter().filter_map(|p| percentile(p, q)).collect::<Vec<_>>())
}

/// Indices of the faster half of the passes (at least one), by wall time.
pub fn fastest_half(walls: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..walls.len()).collect();
    idx.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    idx.truncate(walls.len().div_ceil(2));
    idx
}

/// A JSON value, enough for the benchmark's report lines.
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) {
        match self {
            // `{}` prints the shortest string that parses back to the same
            // f64: every digit as measured. Non-finite values are not JSON.
            Json::Num(x) if x.is_finite() => write!(s, "{x}").expect("write to String"),
            Json::Num(_) => s.push_str("null"),
            Json::Int(n) => write!(s, "{n}").expect("write to String"),
            Json::Bool(b) => write!(s, "{b}").expect("write to String"),
            Json::Str(t) => write_str(s, t),
            Json::Obj(fields) => {
                s.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    write_str(s, k);
                    s.push_str(": ");
                    v.write(s);
                }
                s.push('}');
            }
        }
    }
}

fn write_str(s: &mut String, t: &str) {
    s.push('"');
    for c in t.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(s, "\\u{:04x}", c as u32).expect("write to String"),
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(fastest_half(&[3.0, 1.0, 2.0]), vec![1, 2]);
        assert_eq!(fastest_half(&[5.0]), vec![0]);
        let passes = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0], vec![2.0, 3.0, 4.0]];
        assert_eq!(per_pass_percentile(&passes, 0.5), Some(3.0));
        assert_eq!(per_pass_percentile(&[vec![]], 0.5), None);
    }

    #[test]
    fn json_renders_numbers_in_full() {
        let j = Json::obj(vec![("a", Json::Num(0.1 + 0.2)), ("b", Json::Str("x\"y".into()))]);
        assert_eq!(j.render(), r#"{"a": 0.30000000000000004, "b": "x\"y"}"#);
    }
}
