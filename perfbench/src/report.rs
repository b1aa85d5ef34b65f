//! The result of one run: metrics by name with units, the attempted and
//! failed counts, and the facts needed to read them (environment,
//! sample counts, bases of ratios).

use std::collections::BTreeMap;

use ceh_obs::json::{self, Json};

use crate::phase::Phase;
use crate::stats::{LatencySummary, PerOp};

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Of those, operations that returned an error or timed out.
    pub failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
    info: BTreeMap<String, Json>,
}

impl Report {
    /// Record metric `name`, in the unit [`crate::END_TO_END`] or
    /// [`crate::PER_LAYER`] gives it.
    pub fn metric(&mut self, name: &str, value: f64) {
        let unit = crate::unit_of(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Record a per-op ratio as metric `name`, and its base under `info`.
    pub fn ratio(&mut self, name: &str, r: PerOp) {
        self.metric(name, r.value);
        self.note(
            &format!("base.{name}"),
            num_obj(&[("count", r.count), ("ops", r.base as f64)]),
        );
    }

    /// Record a fact about the run.
    pub fn note(&mut self, key: &str, value: Json) {
        self.info.insert(key.to_string(), value);
    }

    /// Record the sample count and tail of a latency summary.
    pub fn note_latency(&mut self, key: &str, s: &LatencySummary) {
        self.note(
            key,
            num_obj(&[
                ("samples", s.count as f64),
                ("p50_us", s.p50_ns as f64 / 1e3),
                ("p99_us", s.p99_ns as f64 / 1e3),
                ("highest_percentile_with_10_beyond", s.tail_q * 100.0),
                ("highest_percentile_us", s.tail_ns as f64 / 1e3),
            ]),
        );
    }

    /// Record a phase's steal and operations per window, and its rate over
    /// all of them with and without the stolen time.
    pub fn note_phase(&mut self, name: &str, p: &Phase) {
        self.note(
            &format!("{name}.steal_pct_per_window"),
            Json::Arr(p.steal_pct.iter().map(|&s| Json::Num(s)).collect()),
        );
        self.note(
            &format!("{name}.ops_per_window"),
            Json::Arr(
                p.ops_per_window
                    .iter()
                    .map(|&n| Json::Num(n as f64))
                    .collect(),
            ),
        );
        self.note(
            &format!("{name}.ops_per_s"),
            num_obj(&[
                ("per_unstolen_s", p.all.ops_per_s()),
                ("per_wall_s", p.all.ops_per_wall_s()),
                ("seconds", p.all.seconds),
                ("stolen_s", p.all.stolen_s),
            ]),
        );
    }

    /// Names of the metrics recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(String::as_str)
    }

    /// The facts line: everything recorded with [`Report::note`].
    pub fn info_line(&self) -> String {
        let mut out = String::new();
        json::write(&mut out, &Json::Obj(self.info.clone()));
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// Fails on a metric that is not a finite number.
    pub fn result_line(&self) -> Result<String, String> {
        let mut metrics = BTreeMap::new();
        for (name, &(value, unit)) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), Json::Num(value));
            m.insert("unit".to_string(), Json::Str(unit.to_string()));
            metrics.insert(name.clone(), Json::Obj(m));
        }
        let mut root = BTreeMap::new();
        root.insert("correct".to_string(), Json::Bool(true));
        root.insert("attempted".to_string(), Json::Num(self.attempted as f64));
        root.insert("failed".to_string(), Json::Num(self.failed as f64));
        root.insert("metrics".to_string(), Json::Obj(metrics));
        let mut out = String::new();
        json::write(&mut out, &Json::Obj(root));
        Ok(out)
    }
}

/// A JSON object of numbers.
pub fn num_obj(fields: &[(&str, f64)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::Num(v)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.metric("ops_per_s", 1234.5678);
        r.ratio("locks.grants_per_op", PerOp::new(20.0, 10, 1.0));
        let doc = json::parse(&r.result_line().unwrap()).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("ops_per_s").unwrap().get("value").unwrap().as_f64(),
            Some(1234.5678)
        );
        assert_eq!(
            m.get("locks.grants_per_op")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        let info = json::parse(&r.info_line()).unwrap();
        let base = info.get("base.locks.grants_per_op").unwrap();
        assert_eq!(base.get("ops").unwrap().as_u64(), Some(10));
        assert_eq!(
            m.get("ops_per_s").unwrap().get("unit").unwrap().as_str(),
            Some("1/s")
        );
    }

    #[test]
    fn non_finite_metrics_are_refused() {
        let mut r = Report::default();
        r.metric("find_p50_us", f64::NAN);
        assert!(r.result_line().is_err());
    }
}
