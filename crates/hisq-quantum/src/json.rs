//! JSON serialization of the quantum-model types, for the
//! scenario-file surface (`hisq run`).
//!
//! Formats (all decoders reject unknown fields):
//!
//! ```json
//! {"p_gate_1q": 0.001, "p_gate_2q": 0.01, "p_meas": 0.02,
//!  "p_idle_per_ns": 1e-6, "p_leak": 0.0005}
//! ```

use hisq_json::{Json, JsonError, ObjReader};

use crate::noise::{NoiseMap, NoiseModel};

impl NoiseModel {
    /// Serializes the error rates. Zero rates are emitted too (the
    /// noiseless model renders as five explicit zeros), so files state
    /// their physics assumptions in full.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("p_gate_1q".into(), Json::float(self.p_gate_1q)),
            ("p_gate_2q".into(), Json::float(self.p_gate_2q)),
            ("p_meas".into(), Json::float(self.p_meas)),
            ("p_idle_per_ns".into(), Json::float(self.p_idle_per_ns)),
            ("p_leak".into(), Json::float(self.p_leak)),
        ])
    }

    /// Parses a noise model serialized by [`NoiseModel::to_json`].
    /// Omitted fields are zero (noiseless), so `{}` is
    /// [`NoiseModel::NOISELESS`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for unknown fields, wrong
    /// types, or rates outside `[0, 1]`.
    pub fn from_json(value: &Json, path: &str) -> Result<NoiseModel, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let mut model = NoiseModel::NOISELESS;
        let rate = |obj: &mut ObjReader, name: &str, default: f64| -> Result<f64, JsonError> {
            let Some(v) = obj.optional(name) else {
                return Ok(default);
            };
            let field_path = obj.field_path(name);
            let rate = v.as_f64(&field_path)?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(JsonError::decode(
                    field_path,
                    format!("probability {rate} is outside [0, 1]"),
                ));
            }
            Ok(rate)
        };
        model.p_gate_1q = rate(&mut obj, "p_gate_1q", 0.0)?;
        model.p_gate_2q = rate(&mut obj, "p_gate_2q", 0.0)?;
        model.p_meas = rate(&mut obj, "p_meas", 0.0)?;
        model.p_idle_per_ns = rate(&mut obj, "p_idle_per_ns", 0.0)?;
        model.p_leak = rate(&mut obj, "p_leak", 0.0)?;
        obj.reject_unknown()?;
        Ok(model)
    }
}

impl NoiseMap {
    /// Serializes the map: the canonical form a fabric-aware
    /// scenario's compile key hashes. A uniform map emits **exactly**
    /// the [`NoiseModel::to_json`] shape (no `overrides` key);
    /// overrides append an `"overrides": [{"qubit": q, "noise": {...}}]`
    /// array in ascending qubit order.
    pub fn to_json(&self) -> Json {
        let mut json = self.default_model().to_json();
        if !self.is_uniform() {
            let overrides: Vec<Json> = self
                .overrides()
                .map(|(qubit, noise)| {
                    Json::Object(vec![
                        ("qubit".into(), (qubit as u64).into()),
                        ("noise".into(), noise.to_json()),
                    ])
                })
                .collect();
            if let Json::Object(fields) = &mut json {
                fields.push(("overrides".into(), Json::Array(overrides)));
            }
        }
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisq_json::Json;

    #[test]
    fn noise_model_round_trips() {
        for model in [
            NoiseModel::NOISELESS,
            NoiseModel::NOISELESS
                .with_gate_errors(1e-3, 1e-2)
                .with_meas_error(0.02)
                .with_idle_error(1e-6)
                .with_leak(5e-4),
        ] {
            let text = model.to_json().to_string_compact();
            let back = NoiseModel::from_json(&Json::parse(&text).unwrap(), "noise").unwrap();
            assert_eq!(model, back, "{text}");
        }
        // `{}` is the noiseless model.
        assert_eq!(
            NoiseModel::from_json(&Json::parse("{}").unwrap(), "noise").unwrap(),
            NoiseModel::NOISELESS
        );
    }

    #[test]
    fn noise_model_rejects_bad_rates() {
        let err = NoiseModel::from_json(&Json::parse(r#"{"p_meas": 1.5}"#).unwrap(), "noise")
            .unwrap_err();
        assert!(err.to_string().contains("outside [0, 1]"), "{err}");
        let err =
            NoiseModel::from_json(&Json::parse(r#"{"p_mea": 0.1}"#).unwrap(), "noise").unwrap_err();
        assert_eq!(err.to_string(), "noise: unknown field `p_mea`");
    }

    #[test]
    fn noise_map_renders_the_model_shape_plus_overrides() {
        let default = NoiseModel::NOISELESS.with_gate_errors(1e-3, 1e-2);
        let hot = NoiseModel::NOISELESS.with_gate_errors(5e-2, 1e-1);
        // Uniform maps emit exactly the NoiseModel shape.
        let uniform = NoiseMap::uniform(default);
        assert_eq!(
            uniform.to_json().to_string_compact(),
            default.to_json().to_string_compact()
        );
        // Overrides append in ascending qubit order.
        let mut map = uniform;
        map.set_qubit(7, NoiseModel::NOISELESS);
        map.set_qubit(2, hot);
        assert_eq!(
            map.to_json().to_string_compact(),
            concat!(
                r#"{"p_gate_1q":0.001,"p_gate_2q":0.01,"p_meas":0.0,"p_idle_per_ns":0.0,"#,
                r#""p_leak":0.0,"overrides":["#,
                r#"{"qubit":2,"noise":{"p_gate_1q":0.05,"p_gate_2q":0.1,"p_meas":0.0,"#,
                r#""p_idle_per_ns":0.0,"p_leak":0.0}},"#,
                r#"{"qubit":7,"noise":{"p_gate_1q":0.0,"p_gate_2q":0.0,"p_meas":0.0,"#,
                r#""p_idle_per_ns":0.0,"p_leak":0.0}}]}"#,
            )
        );
    }
}
