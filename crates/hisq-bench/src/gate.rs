//! The wall-clock gates of the bench targets `event_engine` and
//! `sweep_throughput`, whose [`Report`]s are committed as
//! `BENCH_<name>.json` at the workspace root. One reader
//! ([`Bench::rows`]) reads the committed and the fresh report, and one
//! row check ([`Bench::check`]) compares them. The reports carry wall
//! time, so they are gated, never byte-compared.

use hisq_json::{Json, JsonError, ObjReader};

/// A row fails its gate when its measured value is worse than the
/// committed one by more than this factor: ns/event may not rise above
/// committed × 1.15, and scenarios/sec may not fall below
/// committed / 1.15.
pub const GATE_TOLERANCE: f64 = 1.15;

/// `event_engine`: ns per processed event, per scheme and size.
pub const EVENT_ENGINE: Bench = Bench {
    name: "event_engine",
    keys: &["scheme", "controllers"],
    field: "ns_per_event",
    lower_is_better: true,
    quick: false,
};

/// `sweep_throughput`: cached full-sweep scenarios/sec per thread count.
pub const SWEEP_THROUGHPUT: Bench = Bench {
    name: "sweep_throughput",
    keys: &["threads"],
    field: "scenarios_per_sec",
    lower_is_better: false,
    quick: true,
};

/// A gated bench target: the `results` fields that key a row, the one
/// field the gate compares, whether lower is better, and whether the
/// bench takes `--quick` (a reduced grid that is never written).
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    name: &'static str,
    keys: &'static [&'static str],
    field: &'static str,
    lower_is_better: bool,
    quick: bool,
}

/// A bench's measurement: top-level fields, then one list of fields
/// per `results` row, each value a rendered JSON token.
#[derive(Debug, Default)]
pub struct Report {
    /// The fields between `benchmark` and `results`.
    pub head: Vec<(&'static str, String)>,
    /// The `results` rows.
    pub rows: Vec<Vec<(&'static str, String)>>,
}

/// One row of a report: its key and the value of the gated field.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `field=value` for each key field, e.g. `scheme="bisp" controllers=8`.
    pub key: String,
    /// The gated field's value.
    pub value: f64,
}

/// What a bench run does with its report, from its flags.
#[derive(Debug)]
pub enum Run {
    /// A full run: rewrite the committed report.
    Record,
    /// `--quick`: time the reduced grid and write nothing.
    Quick,
    /// `--gate`: check against these committed rows and write nothing.
    Gate(Vec<Row>),
}

/// A report number: `decimals` places, or `null` when not finite.
pub fn number(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".into()
    }
}

/// Prints `message` to stderr and exits with `code`.
fn exit(code: i32, message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(code)
}

impl Report {
    /// The report as one line of JSON: `benchmark`, the head fields,
    /// then `results`.
    fn json(&self, name: &str) -> String {
        let object = |fields: &[(&str, String)]| {
            let fields: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!("{{{}}}", fields.join(","))
        };
        let rows: Vec<String> = self.rows.iter().map(|row| object(row)).collect();
        let mut fields = vec![("benchmark", format!("\"{name}\""))];
        fields.extend(self.head.iter().cloned());
        fields.push(("results", format!("[{}]", rows.join(","))));
        object(&fields) + "\n"
    }

    /// The `results` rows as a table with one line per field and one
    /// column per row.
    fn table(&self) -> String {
        let cell = |(_, v): &(&str, String)| v.trim_matches('"').to_string();
        let fields = || self.rows.iter().flatten();
        let label = fields().map(|(k, _)| k.len()).max().unwrap_or(0);
        let width = 2 + fields().map(|f| cell(f).len()).max().unwrap_or(0);
        let mut table = String::new();
        for (i, (field, _)) in self.rows.first().into_iter().flatten().enumerate() {
            table += &format!("{field:<label$}");
            for row in &self.rows {
                table += &format!("{:>width$}", cell(&row[i]));
            }
            table += "\n";
        }
        table
    }
}

impl Bench {
    /// The committed report's path.
    pub fn path(&self) -> String {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        format!("{root}/BENCH_{}.json", self.name)
    }

    /// The `results` rows of a report.
    ///
    /// # Errors
    ///
    /// Returns a parse error, a missing or mistyped field at its path,
    /// or an error when `results` is empty (a gate over no rows passes).
    pub fn rows(&self, text: &str) -> Result<Vec<Row>, JsonError> {
        let json = Json::parse(text)?;
        let results = ObjReader::new(&json, "report")?.required("results")?;
        let results = results.as_array("report.results")?;
        if results.is_empty() {
            return Err(JsonError::decode("report.results", "no rows to gate"));
        }
        let read = |(i, row): (usize, &Json)| {
            let mut row = ObjReader::new(row, format!("report.results[{i}]"))?;
            let mut key = Vec::new();
            for field in self.keys {
                key.push(format!(
                    "{field}={}",
                    row.required(field)?.to_string_compact()
                ));
            }
            let value = row.required(self.field)?;
            let value = value.as_f64(&row.field_path(self.field))?;
            Ok(Row {
                key: key.join(" "),
                value,
            })
        };
        results.iter().enumerate().map(read).collect()
    }

    /// Holds a committed row against the measured rows: the `gate ok`
    /// line.
    ///
    /// # Errors
    ///
    /// The `gate FAIL` line when the measured value is worse by more
    /// than [`GATE_TOLERANCE`]; `gate MISSING` when no row has the key.
    pub fn check(&self, committed: &Row, measured: &[Row]) -> Result<String, String> {
        let (key, was, unit) = (&committed.key, committed.value, self.field);
        let Some(now) = measured.iter().find(|row| row.key == *key) else {
            return Err(format!("gate MISSING {key}: row not measured"));
        };
        let now = now.value;
        let (limit, ok) = if self.lower_is_better {
            (was * GATE_TOLERANCE, now <= was * GATE_TOLERANCE)
        } else {
            (was / GATE_TOLERANCE, now >= was / GATE_TOLERANCE)
        };
        let line = format!("{key}: {now:.1} {unit} (committed {was:.1}, limit {limit:.1})");
        if ok {
            Ok(format!("gate ok   {line}"))
        } else {
            let percent = (GATE_TOLERANCE - 1.0) * 100.0;
            Err(format!("gate FAIL {line}: more than {percent:.0}% worse"))
        }
    }

    /// Reads the bench's flags, and under `--gate` the committed rows,
    /// before anything is measured. The flags are `--gate`, `--quick`
    /// where the bench takes it, and cargo's `--bench`, which is
    /// ignored; anything else, or `--gate --quick`, exits 2. A committed
    /// report that cannot be read exits 1.
    pub fn start(&self) -> Run {
        let (name, mut gate, mut quick) = (self.name, false, false);
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--gate" => gate = true,
                "--quick" if self.quick => quick = true,
                "--bench" => {}
                other => exit(2, format!("{name}: unknown argument {other}")),
            }
        }
        if gate && quick {
            exit(2, format!("{name}: --gate measures the full grid"));
        } else if !gate {
            return if quick { Run::Quick } else { Run::Record };
        }
        let path = self.path();
        let text = std::fs::read_to_string(&path);
        let text = text.unwrap_or_else(|e| exit(1, format!("{name}: --gate needs {path}: {e}")));
        let committed = self.rows(&text);
        Run::Gate(committed.unwrap_or_else(|e| exit(1, format!("{name}: {path}: {e}"))))
    }

    /// Prints `report`, then under `--gate` prints [`Bench::check`]'s
    /// line for every committed row and exits 1 if any is not ok. A
    /// full run writes the report to [`Bench::path`]; a `--quick` run
    /// writes nothing.
    pub fn finish(&self, run: Run, report: &Report) {
        print!("{}", report.table());
        let json = report.json(self.name);
        let committed = match run {
            Run::Gate(committed) => committed,
            Run::Quick => return,
            Run::Record => {
                let path = self.path();
                std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
                println!("wrote BENCH_{}.json (workspace root)", self.name);
                return;
            }
        };
        let measured = self.rows(&json).expect("every measured value is finite");
        let mut failed = false;
        for row in &committed {
            let line = self.check(row, &measured);
            failed |= line.is_err();
            println!("{}", line.unwrap_or_else(|fail| fail));
        }
        if failed {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(key: &str, value: f64) -> Row {
        Row {
            key: key.to_string(),
            value,
        }
    }

    #[test]
    fn ns_per_event_may_rise_by_the_tolerance_and_no_more() {
        let committed = row("scheme=\"bisp\" controllers=8", 66.3);
        let limit = 66.3 * GATE_TOLERANCE;
        let ok = EVENT_ENGINE.check(&committed, &[row(&committed.key, limit)]);
        let ok = ok.unwrap();
        assert!(
            ok.starts_with("gate ok   scheme=\"bisp\" controllers=8: 76.2"),
            "{ok}"
        );
        let above = row(&committed.key, limit * (1.0 + 1e-12));
        let err = EVENT_ENGINE.check(&committed, &[above]).unwrap_err();
        assert!(
            err.starts_with("gate FAIL scheme=\"bisp\" controllers=8"),
            "{err}"
        );
        assert!(
            err.ends_with("(committed 66.3, limit 76.2): more than 15% worse"),
            "{err}"
        );
    }

    #[test]
    fn scenarios_per_sec_may_fall_by_the_tolerance_and_no_more() {
        let committed = row("threads=4", 1815.32);
        let limit = 1815.32 / GATE_TOLERANCE;
        let ok = SWEEP_THROUGHPUT.check(&committed, &[row("threads=4", limit)]);
        let ok = ok.unwrap();
        assert!(
            ok.starts_with("gate ok   threads=4: 1578.5 scenarios_per_sec"),
            "{ok}"
        );
        let below = row("threads=4", limit * (1.0 - 1e-12));
        let err = SWEEP_THROUGHPUT.check(&committed, &[below]).unwrap_err();
        assert!(err.starts_with("gate FAIL threads=4"), "{err}");
        let nan = row("threads=4", f64::NAN);
        assert!(SWEEP_THROUGHPUT.check(&committed, &[nan]).is_err());
    }

    #[test]
    fn a_committed_row_with_no_measured_row_fails() {
        let measured = [row("threads=1", 5000.0), row("threads=4", 5000.0)];
        let err = SWEEP_THROUGHPUT.check(&row("threads=8", 1692.67), &measured);
        assert_eq!(err.unwrap_err(), "gate MISSING threads=8: row not measured");
    }

    #[test]
    fn an_empty_results_array_fails() {
        for bench in [EVENT_ENGINE, SWEEP_THROUGHPUT] {
            let err = bench.rows(r#"{"results": []}"#).unwrap_err();
            assert_eq!(err.to_string(), "report.results: no rows to gate");
        }
        let err = SWEEP_THROUGHPUT.rows(r#"{"results": [{"threads": 1}]}"#);
        let err = err.unwrap_err().to_string();
        assert!(
            err.contains("report.results[0]") && err.contains("scenarios_per_sec"),
            "{err}"
        );
    }

    #[test]
    fn both_committed_reports_read_through_one_reader() {
        let committed = |bench: Bench| {
            let text = std::fs::read_to_string(bench.path()).expect("committed report");
            bench.rows(&text).expect("committed rows")
        };
        let rows = committed(EVENT_ENGINE);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0], row("scheme=\"bisp\" controllers=8", 66.3));
        let rows = committed(SWEEP_THROUGHPUT);
        let keys: Vec<&str> = rows.iter().map(|row| row.key.as_str()).collect();
        assert_eq!(keys, ["threads=1", "threads=4", "threads=8"]);
        for row in &rows {
            assert!(SWEEP_THROUGHPUT.check(row, &rows).is_ok(), "{row:?}");
        }
    }

    #[test]
    fn a_report_reads_back_through_the_reader() {
        let field = |name, value: &str| (name, value.to_string());
        let report = Report {
            head: vec![field("rounds", "40")],
            rows: vec![
                vec![
                    field("scheme", "\"bisp\""),
                    field("controllers", "8"),
                    field("ns_per_event", "66.3"),
                ],
                vec![
                    field("scheme", "\"lockstep\""),
                    field("controllers", "8"),
                    field("ns_per_event", "null"),
                ],
            ],
        };
        let json = report.json("event_engine");
        assert_eq!(
            json,
            "{\"benchmark\":\"event_engine\",\"rounds\":40,\"results\":[\
             {\"scheme\":\"bisp\",\"controllers\":8,\"ns_per_event\":66.3},\
             {\"scheme\":\"lockstep\",\"controllers\":8,\"ns_per_event\":null}]}\n"
        );
        // A non-finite measurement is written as `null`, which the
        // reader rejects, so a gate run over it stops.
        let err = EVENT_ENGINE.rows(&json).unwrap_err().to_string();
        assert!(err.starts_with("report.results[1].ns_per_event"), "{err}");
        assert_eq!(
            report.table(),
            "scheme            bisp  lockstep\n\
             controllers          8         8\n\
             ns_per_event      66.3      null\n"
        );
    }
}
