//! The one JSON writer of the harness (result line, descriptor, trace files).

use std::fmt::Write;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(i64),
    /// Written with every digit of Rust's shortest round-trip form;
    /// non-finite values become `null` (NaN and infinities are not JSON).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Multi-line rendering: containers of scalars stay on one line, every
    /// other container puts one child per line (`BENCHMARK.json` is read by
    /// people too).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn is_flat(&self) -> bool {
        match self {
            Json::Arr(items) => items
                .iter()
                .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_))),
            Json::Obj(fields) => fields
                .iter()
                .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_))),
            _ => true,
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        if self.is_flat() {
            return self.write(out);
        }
        let pad = "  ".repeat(depth + 1);
        let (open, close) = if matches!(self, Json::Arr(_)) {
            ('[', ']')
        } else {
            ('{', '}')
        };
        out.push(open);
        let mut first = true;
        let mut child = |key: Option<&str>, v: &Json, out: &mut String| {
            out.push_str(if std::mem::take(&mut first) {
                "\n"
            } else {
                ",\n"
            });
            out.push_str(&pad);
            if let Some(k) = key {
                write_str(k, out);
                out.push_str(": ");
            }
            v.write_pretty(out, depth + 1);
        };
        match self {
            Json::Arr(items) => items.iter().for_each(|v| child(None, v, out)),
            Json::Obj(fields) => fields.iter().for_each(|(k, v)| child(Some(k), v, out)),
            _ => unreachable!("scalars are flat"),
        }
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }

    fn write(&self, out: &mut String) {
        const INFALLIBLE: &str = "writing to a String cannot fail";
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect(INFALLIBLE),
            Json::Num(v) if v.is_finite() => write!(out, "{v}").expect(INFALLIBLE),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
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
    fn non_finite_floats_become_null() {
        let j = Json::obj([
            ("inf", Json::Num(f64::INFINITY)),
            ("nan", Json::Num(f64::NAN)),
            ("ok", Json::Num(1.5)),
        ]);
        assert_eq!(j.render(), r#"{"inf": null, "nan": null, "ok": 1.5}"#);
    }

    #[test]
    fn floats_keep_all_their_digits() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(3.0).render(), "3");
    }

    #[test]
    fn pretty_nests_only_containers_of_containers() {
        let j = Json::obj([
            ("a", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            (
                "b",
                Json::Arr(vec![
                    Json::obj([("x", Json::Int(1))]),
                    Json::obj([("y", Json::Bool(false))]),
                ]),
            ),
        ]);
        assert_eq!(
            j.pretty(),
            "{\n  \"a\": [1, 2],\n  \"b\": [\n    {\"x\": 1},\n    {\"y\": false}\n  ]\n}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let tab = char::from(9u8);
        assert_eq!(
            Json::Str(format!("a\"b\\c\n{tab}")).render(),
            r#""a\"b\\c\n\u0009""#
        );
        assert_eq!(
            Json::Arr(vec![Json::Int(1), Json::Num(f64::NAN), Json::Bool(true)]).render(),
            "[1, null, true]"
        );
    }
}
