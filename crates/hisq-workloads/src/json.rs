//! JSON serialization of workload selectors, for the scenario-file
//! surface (`hisq run`).
//!
//! Workloads serialize as selectors, not circuits — a scenario names
//! *what to run* (`{"suite": "qft_n10"}`) and the sweep workers
//! regenerate the circuit deterministically, exactly as the in-process
//! sweep grids do.

use hisq_json::{Json, JsonError, ObjReader};
use hisq_net::MEAS_FIFO_ADDR;

use crate::suite::{long_range_controllers, WorkloadSpec};

impl WorkloadSpec {
    /// Serializes the workload selector:
    /// `{"suite": "qft_n10"}` or
    /// `{"long_range_cnots": {"parallel": 4, "span": 3}}`.
    pub fn to_json(&self) -> Json {
        match self {
            WorkloadSpec::Suite { name } => {
                Json::Object(vec![("suite".into(), Json::str(name.clone()))])
            }
            WorkloadSpec::LongRangeCnots { parallel, span } => Json::Object(vec![(
                "long_range_cnots".into(),
                Json::Object(vec![
                    ("parallel".into(), (*parallel).into()),
                    ("span".into(), (*span).into()),
                ]),
            )]),
        }
    }

    /// Parses a selector serialized by [`WorkloadSpec::to_json`].
    ///
    /// Whether a named suite instance actually exists is checked when
    /// the workload is built (the scenario runner reports an unknown
    /// workload error), not here — the selector grammar stays
    /// independent of the suite registry.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` when the object does not
    /// carry exactly one known selector key, or for wrong types. A
    /// `long_range_cnots` selector also fails when `parallel` or `span`
    /// is zero, or when its controllers would not all sit below
    /// [`MEAS_FIFO_ADDR`].
    pub fn from_json(value: &Json, path: &str) -> Result<WorkloadSpec, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let suite = obj.optional("suite").cloned();
        let long_range = obj.optional("long_range_cnots").cloned();
        obj.reject_unknown()?;
        match (suite, long_range) {
            (Some(name), None) => Ok(WorkloadSpec::Suite {
                name: name.as_str(&format!("{path}.suite"))?.to_owned(),
            }),
            (None, Some(params)) => {
                let params_path = format!("{path}.long_range_cnots");
                let mut params = ObjReader::new(&params, &params_path)?;
                let parallel = params
                    .required("parallel")?
                    .as_usize(&params.field_path("parallel"))?;
                let span = params
                    .required("span")?
                    .as_usize(&params.field_path("span"))?;
                params.reject_unknown()?;
                for (field, value) in [("parallel", parallel), ("span", span)] {
                    if value == 0 {
                        return Err(JsonError::decode(
                            format!("{params_path}.{field}"),
                            format!("{field} must be at least 1"),
                        ));
                    }
                }
                let limit = usize::from(MEAS_FIFO_ADDR);
                match long_range_controllers(parallel, span) {
                    Some(controllers) if controllers <= limit => {
                        Ok(WorkloadSpec::LongRangeCnots { parallel, span })
                    }
                    controllers => Err(JsonError::decode(
                        params_path,
                        format!(
                            "{} controllers are over the limit of {limit}: \
                             node addresses end below the measurement FIFO at {limit}",
                            controllers
                                .map_or(format!("more than {}", usize::MAX), |n| n.to_string()),
                        ),
                    )),
                }
            }
            (None, None) => Err(JsonError::decode(
                path,
                "workload needs a `suite` or `long_range_cnots` selector",
            )),
            (Some(_), Some(_)) => Err(JsonError::decode(
                path,
                "workload has both `suite` and `long_range_cnots`; pick one",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_specs_round_trip() {
        for spec in [
            WorkloadSpec::suite("qft_n10"),
            WorkloadSpec::LongRangeCnots {
                parallel: 4,
                span: 3,
            },
            // 4095 controllers, addresses 0..=4094: the largest shape.
            WorkloadSpec::LongRangeCnots {
                parallel: 256,
                span: 7,
            },
        ] {
            let text = spec.to_json().to_string_compact();
            let back = WorkloadSpec::from_json(&Json::parse(&text).unwrap(), "w").unwrap();
            assert_eq!(spec, back, "{text}");
        }
    }

    #[test]
    fn selector_grammar_is_strict() {
        for (text, needle) in [
            ("{}", "needs a `suite` or `long_range_cnots`"),
            (
                r#"{"suite": "qft_n10", "long_range_cnots": {"parallel": 1, "span": 1}}"#,
                "pick one",
            ),
            (r#"{"workload": "qft_n10"}"#, "unknown field `workload`"),
            (
                r#"{"long_range_cnots": {"parallel": 1}}"#,
                "missing field `span`",
            ),
            (
                r#"{"long_range_cnots": {"parallel": 0, "span": 7}}"#,
                "w.long_range_cnots.parallel: parallel must be at least 1",
            ),
            (
                r#"{"long_range_cnots": {"parallel": 1, "span": 0}}"#,
                "w.long_range_cnots.span: span must be at least 1",
            ),
            (
                r#"{"long_range_cnots": {"parallel": 257, "span": 7}}"#,
                "w.long_range_cnots: 4111 controllers are over the limit of 4095",
            ),
            (
                r#"{"long_range_cnots": {"parallel": 18446744073709551615, "span": 1}}"#,
                "more than 18446744073709551615 controllers",
            ),
        ] {
            let err = WorkloadSpec::from_json(&Json::parse(text).unwrap(), "w").unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }
}
