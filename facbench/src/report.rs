//! Output: a human-readable table and the run record on stderr, then
//! the result object as the last line of stdout.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A flat JSON object under construction.
#[derive(Default)]
pub struct Obj(String);

impl Obj {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{k}\":");
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Obj {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Obj {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Obj {
        self.key(k);
        facile_obs::json::escape_into(&mut self.0, v);
        self
    }

    /// Inserts already-rendered JSON.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Obj {
        self.key(k);
        self.0.push_str(json);
        self
    }

    pub fn finish(&self) -> String {
        if self.0.is_empty() {
            "{}".to_owned()
        } else {
            format!("{}}}", self.0)
        }
    }
}

/// Renders the result line the benchmark contract asks for.
///
/// # Errors
///
/// A metric that is not a finite number cannot be reported.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut o = Obj::default();
    o.raw("correct", if failed == 0 { "true" } else { "false" })
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", &metrics_json(metrics)?);
    Ok(o.finish())
}

/// The metrics as a JSON object of `{"value", "unit"}` objects.
///
/// # Errors
///
/// A metric that is not a finite number cannot be reported.
fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut m = Obj::default();
    for x in metrics {
        if !x.value.is_finite() {
            return Err(format!("metric {} is {}", x.name, x.value));
        }
        let mut v = Obj::default();
        v.num("value", x.value).str("unit", x.unit);
        m.raw(x.name, &v.finish());
    }
    Ok(m.finish())
}

/// Prints the metrics as a table on stderr.
pub fn table(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_parses_back() {
        let line = result_line(
            3,
            1,
            &[Metric {
                name: "sim_ips",
                value: 1234.5,
                unit: "insn/s",
            }],
        )
        .unwrap();
        let v = facile_obs::json::parse(&line).unwrap();
        assert_eq!(
            v.get("correct"),
            Some(&facile_obs::json::Value::Bool(false))
        );
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(3));
        let m = v.get("metrics").and_then(|m| m.get("sim_ips")).unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1234.5));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("insn/s"));
        assert!(result_line(
            1,
            0,
            &[Metric {
                name: "x",
                value: f64::NAN,
                unit: "s"
            }]
        )
        .is_err());
    }
}
