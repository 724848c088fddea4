//! A small JSON writer: the benchmark's results and `BENCHMARK.json` are
//! rendered with it. The container has no serde, and the benchmark may not
//! depend on `crates/bench`.

use std::fmt::Write as _;

/// A JSON value; objects keep insertion order so output is reproducible.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Printed without a fraction: counts and whole numbers.
    Int(i64),
    /// Printed with every digit `f64` round-trips through.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// One line, no spaces after separators beyond `": "` and `", "`.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented, one field per line; arrays of scalars stay on one line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(n * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                // `{:?}` prints the shortest digits that round-trip, and
                // always a fraction or exponent, so the value stays a float.
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let flat = indent.is_none() || items.iter().all(Json::is_scalar);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if flat { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    item.write(out, if flat { None } else { indent }, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                // An object of scalars (one metric, one workload entry)
                // reads best on one line even in pretty output.
                let flat = indent.is_none() || fields.iter().all(|(_, v)| v.is_scalar());
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if flat { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, if flat { None } else { indent }, depth + 1);
                }
                if !flat && !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_is_the_contract_shape() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("failed", Json::Int(0)),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([("value", Json::Num(1.2034)), ("unit", Json::str("ms"))]),
                )]),
            ),
        ]);
        assert_eq!(
            v.to_line(),
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}}}"#
        );
    }

    #[test]
    fn pretty_output_nests_and_keeps_scalar_objects_on_one_line() {
        let v = Json::obj([
            ("paths", Json::Arr(vec![Json::str("benchmark")])),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("a")),
                    ("why", Json::Null),
                ])]),
            ),
        ]);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"paths\": [\"benchmark\"],\n  \"workloads\": [\n    {\"name\": \"a\", \"why\": null}\n  ]\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a \"quoted\"\nline\t\\ \u{1}").to_line(),
            r#""a \"quoted\"\nline\t\\ \u0001""#
        );
    }

    #[test]
    fn floats_keep_every_digit_and_stay_floats() {
        assert_eq!(Json::Num(0.1 + 0.2).to_line(), "0.30000000000000004");
        assert_eq!(Json::Num(3.0).to_line(), "3.0");
        assert_eq!(Json::Num(1.02e-5).to_line(), "1.02e-5");
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    }
}
