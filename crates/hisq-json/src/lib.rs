//! Offline JSON support for the scenario-file surface.
//!
//! The build environment has no crates.io access, so — like the
//! `rand`/`proptest` shims — this crate hand-rolls the small JSON
//! subset the workspace needs for scenario files, sweep reports and
//! compile keys:
//!
//! - [`Json`] — an exact value tree. Integers keep their full `u64`/
//!   `i64` width (seeds are 64-bit; a float-only model would corrupt
//!   them past 2⁵³).
//! - [`Json::parse`] — a recursive-descent parser reporting **line and
//!   column** for every syntax error, and rejecting duplicate object
//!   keys (a classic silent-misconfiguration source in hand-edited
//!   scenario files).
//! - [`Json::to_string_compact`] / [`Json::to_string_pretty`] —
//!   deterministic writers (insertion-ordered objects, shortest
//!   round-trip float form); sweep reports render compact.
//! - [`ObjReader`] — a field cursor for decoders: every `from_json`
//!   impl takes required/optional fields and then calls
//!   [`ObjReader::reject_unknown`], so a typoed field name is a
//!   readable error naming the JSON path, never silently ignored.
//!
//! # Example
//!
//! ```
//! use hisq_json::{Json, ObjReader};
//!
//! let value = Json::parse(r#"{"seed": 7, "quick": true}"#).unwrap();
//! let mut obj = ObjReader::new(&value, "scenario").unwrap();
//! let seed = obj.required("seed").unwrap().as_u64("scenario.seed").unwrap();
//! let quick = obj.required("quick").unwrap().as_bool("scenario.quick").unwrap();
//! obj.reject_unknown().unwrap();
//! assert_eq!((seed, quick), (7, true));
//!
//! let err = Json::parse("{\"a\": 1,\n  \"a\": 2}").unwrap_err();
//! assert!(err.to_string().contains("line 2"), "{err}");
//! ```

#![deny(missing_docs)]

mod emit;
mod parse;
mod reader;
mod value;

pub use reader::ObjReader;
pub use value::{Json, JsonError};
