//! Shared helpers for the experiments harness: descriptive statistics,
//! log–log slope fits, the split-input vector, and the `BENCH_<pr>.json`
//! snapshot writer, parser and regression check.

pub mod trial;

/// Descriptive statistics of a sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Stats {
    /// Computes statistics over a sample (empty samples give zeros).
    pub fn of(values: &[f64]) -> Stats {
        if values.is_empty() {
            return Stats::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let pct = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        Stats {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            p50: pct(0.5),
            p95: pct(0.95),
            max: *sorted.last().expect("nonempty"),
        }
    }
}

/// Least-squares slope of `ln(y)` against `ln(x)`: the polynomial degree
/// estimate for complexity measurements. Exponential growth shows up as a
/// slope that increases with `x` instead of stabilizing.
///
/// # Panics
///
/// Panics if fewer than two points or any non-positive coordinate.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "log-log fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Standard split-input vector (alternating bits).
pub fn split_inputs(n: usize) -> Vec<Option<bool>> {
    (0..n).map(|i| Some(i % 2 == 0)).collect()
}

/// A minimal JSON writer for perf snapshots (`BENCH_<pr>.json`).
///
/// Keys may be dotted (`"a.b.c"`) to build nested objects. Only strings
/// and finite numbers are supported — exactly what the perf trajectory
/// needs, with no serialization dependency.
#[derive(Clone, Debug, Default)]
pub struct JsonSink {
    entries: Vec<(String, String)>,
}

impl JsonSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a string value under a (dotted) key.
    pub fn put_str(&mut self, key: &str, value: &str) {
        // The snapshot's keys/values are identifiers and labels; escape the
        // two characters that could break the encoding.
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.entries
            .push((key.to_string(), format!("\"{escaped}\"")));
    }

    /// Records a finite number under a (dotted) key.
    pub fn put_num(&mut self, key: &str, value: f64) {
        assert!(value.is_finite(), "JSON snapshot numbers must be finite");
        // Trim to a stable, diff-friendly precision.
        let rendered = if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{value:.0}")
        } else {
            format!("{value:.3}")
        };
        self.entries.push((key.to_string(), rendered));
    }

    fn render_group(entries: &[(&[String], &String)], depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth + 1);
        let mut i = 0;
        while i < entries.len() {
            let (path, value) = entries[i];
            let head = &path[depth];
            let group_end = entries[i..]
                .iter()
                .position(|(p, _)| &p[depth] != head)
                .map_or(entries.len(), |k| i + k);
            if path.len() == depth + 1 {
                out.push_str(&format!("{indent}\"{head}\": {value}"));
                i += 1;
            } else {
                out.push_str(&format!("{indent}\"{head}\": {{\n"));
                Self::render_group(&entries[i..group_end], depth + 1, out);
                out.push_str(&format!("{indent}}}"));
                i = group_end;
            }
            out.push_str(if i < entries.len() { ",\n" } else { "\n" });
        }
    }

    /// Renders the accumulated entries as a pretty-printed JSON object.
    /// Insertion order is preserved; dotted keys become nested objects.
    /// Entries sharing a key prefix must be inserted contiguously (they
    /// are, everywhere this is used; a split group would render the
    /// object key twice).
    pub fn render(&self) -> String {
        let paths: Vec<Vec<String>> = self
            .entries
            .iter()
            .map(|(k, _)| k.split('.').map(str::to_string).collect())
            .collect();
        let entries: Vec<(&[String], &String)> = paths
            .iter()
            .map(Vec::as_slice)
            .zip(self.entries.iter().map(|(_, v)| v))
            .collect();
        let mut out = String::from("{\n");
        Self::render_group(&entries, 0, &mut out);
        out.push_str("}\n");
        out
    }
}

/// Parses a `BENCH_<pr>.json` perf snapshot (the exact subset
/// [`JsonSink`] emits: nested objects of strings and finite numbers)
/// into a flat list of `(dotted key, numeric value)` pairs. String
/// values are skipped — the perf trajectory only compares numbers.
///
/// # Errors
///
/// Returns a description of the first syntax error. This is *not* a
/// general JSON parser; it exists so CI can diff snapshots without a
/// serialization dependency.
pub fn parse_snapshot(text: &str) -> Result<Vec<(String, f64)>, String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl<'a> P<'a> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.i < self.b.len() && self.b[self.i] == c {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", c as char, self.i))
            }
        }
        fn peek(&mut self) -> Option<u8> {
            self.ws();
            self.b.get(self.i).copied()
        }
        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let start = self.i;
            while self.i < self.b.len() && self.b[self.i] != b'"' {
                // JsonSink escapes only backslash and quote. A trailing
                // backslash must not step past the end of the input.
                if self.b[self.i] == b'\\' && self.i + 1 < self.b.len() {
                    self.i += 1;
                }
                self.i += 1;
            }
            let raw = std::str::from_utf8(&self.b[start..self.i])
                .map_err(|_| "non-UTF-8 string".to_string())?
                .replace("\\\"", "\"")
                .replace("\\\\", "\\");
            self.eat(b'"')?;
            Ok(raw)
        }
        fn number(&mut self) -> Result<f64, String> {
            self.ws();
            let start = self.i;
            while self.b.get(self.i).is_some_and(|c| {
                c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
            }) {
                self.i += 1;
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        fn object(&mut self, prefix: &str, out: &mut Vec<(String, f64)>) -> Result<(), String> {
            self.eat(b'{')?;
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(());
            }
            loop {
                let key = self.string()?;
                let key = if prefix.is_empty() {
                    key
                } else {
                    format!("{prefix}.{key}")
                };
                self.eat(b':')?;
                match self.peek() {
                    Some(b'{') => self.object(&key, out)?,
                    Some(b'"') => {
                        self.string()?; // labels are not compared
                    }
                    _ => out.push((key, self.number()?)),
                }
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                }
            }
        }
    }
    let mut p = P {
        b: text.as_bytes(),
        i: 0,
    };
    let mut out = Vec::new();
    p.object("", &mut out)?;
    Ok(out)
}

/// Outcome of diffing one metric between two snapshots.
#[derive(Clone, Debug, PartialEq)]
pub struct RegressionCheck {
    /// The dotted metric key.
    pub key: String,
    /// Value in the older snapshot.
    pub old: f64,
    /// Value in the newer snapshot.
    pub new: f64,
    /// `new / old`.
    pub ratio: f64,
    /// Whether the ratio is within the allowed limit.
    pub ok: bool,
}

/// Compares `key` between two parsed snapshots; `max_ratio` is the
/// largest acceptable `new / old` (e.g. `1.25` = fail beyond a 25 %
/// regression).
///
/// # Errors
///
/// Errors when the key is missing from either snapshot or the old value
/// is not positive — a broken trajectory must fail loudly, not pass
/// vacuously.
pub fn check_regression(
    old: &[(String, f64)],
    new: &[(String, f64)],
    key: &str,
    max_ratio: f64,
) -> Result<RegressionCheck, String> {
    let find = |snap: &[(String, f64)], which: &str| {
        snap.iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("key '{key}' missing from the {which} snapshot"))
    };
    let old_v = find(old, "old")?;
    let new_v = find(new, "new")?;
    if old_v <= 0.0 {
        return Err(format!("old value for '{key}' is not positive ({old_v})"));
    }
    let ratio = new_v / old_v;
    Ok(RegressionCheck {
        key: key.to_string(),
        old: old_v,
        new: new_v,
        ratio,
        ok: ratio <= max_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_sample() {
        let s = Stats::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn stats_empty() {
        let s = Stats::of(&[]);
        assert_eq!(s.count, 0);
    }

    #[test]
    fn slope_of_cubic_is_three() {
        let pts: Vec<(f64, f64)> = (2..10).map(|x| (x as f64, (x * x * x) as f64)).collect();
        assert!((loglog_slope(&pts) - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn slope_rejects_zero() {
        let _ = loglog_slope(&[(1.0, 0.0), (2.0, 1.0)]);
    }

    #[test]
    fn json_sink_renders_nested_objects() {
        let mut sink = JsonSink::new();
        sink.put_str("schema", "v1");
        sink.put_num("micro.a", 1.5);
        sink.put_num("micro.b", 2.0);
        sink.put_num("wall.seconds", 3.0);
        let out = sink.render();
        assert_eq!(
            out,
            "{\n  \"schema\": \"v1\",\n  \"micro\": {\n    \"a\": 1.500,\n    \"b\": 2\n  },\n  \"wall\": {\n    \"seconds\": 3\n  }\n}\n"
        );
    }

    #[test]
    fn json_sink_escapes_strings() {
        let mut sink = JsonSink::new();
        sink.put_str("k", "a\"b\\c");
        assert!(sink.render().contains("\"a\\\"b\\\\c\""));
    }

    #[test]
    fn snapshot_round_trips_through_parser() {
        let mut sink = JsonSink::new();
        sink.put_str("schema", "sba-bench-v1");
        sink.put_num("microbench_ns.poly_eval_t1", 4.304);
        sink.put_num("scc_larger_system.wall_seconds", 26.5);
        sink.put_num("scc_larger_system.messages", 16486281.0);
        let parsed = parse_snapshot(&sink.render()).expect("parse");
        assert_eq!(
            parsed,
            vec![
                ("microbench_ns.poly_eval_t1".to_string(), 4.304),
                ("scc_larger_system.wall_seconds".to_string(), 26.5),
                ("scc_larger_system.messages".to_string(), 16486281.0),
            ]
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_snapshot("").is_err());
        assert!(parse_snapshot("{\"a\": }").is_err());
        assert!(parse_snapshot("{\"a\" 1}").is_err());
        assert!(parse_snapshot("{}").map(|v| v.is_empty()).unwrap_or(false));
        // Truncated input ending in a backslash mid-string must Err, not
        // step past the end of the buffer.
        assert!(parse_snapshot("{\"a\\").is_err());
        assert!(parse_snapshot("{\"a\\\"").is_err());
    }

    #[test]
    fn regression_check_flags_slowdowns() {
        let old = vec![("scc_larger_system.wall_seconds".to_string(), 20.0)];
        let fast = vec![("scc_larger_system.wall_seconds".to_string(), 18.0)];
        let slow = vec![("scc_larger_system.wall_seconds".to_string(), 26.0)];
        let key = "scc_larger_system.wall_seconds";
        assert!(check_regression(&old, &fast, key, 1.25).unwrap().ok);
        let r = check_regression(&old, &slow, key, 1.25).unwrap();
        assert!(!r.ok);
        assert!((r.ratio - 1.3).abs() < 1e-9);
        assert!(check_regression(&old, &fast, "missing.key", 1.25).is_err());
    }
}
