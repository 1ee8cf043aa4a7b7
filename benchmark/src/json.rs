//! The few JSON pieces the harness writes by hand (the offline crate
//! set has no serde). Reading goes through `satwatch_analytics::expr::Json`.

use satwatch_analytics::expr::Json;

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` with all its digits (Rust prints the shortest text that reads
/// back to the same `f64`, never an exponent). Not-a-number and the
/// infinities have no JSON spelling and mean a harness bug.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

/// `{"k": v, ...}` on one line; values are already JSON text.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// The contract's result line: `metrics` are `(name, unit, value)`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, &str, f64)]) -> String {
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|(name, unit, value)| (*name, object(&[("value", number(*value)), ("unit", string(unit))])))
        .collect();
    object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", object(&fields)),
    ])
}

/// A number out of a parsed value, whichever way it was spelled.
pub fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Int(i) => Some(*i as f64),
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// `obj[key]` as a number, or an error naming the key.
pub fn field_f64(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key).and_then(as_f64).ok_or_else(|| format!("missing number {key:?}"))
}

/// `obj[key]` as a string, or an error naming the key.
pub fn field_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s),
        _ => Err(format!("missing string {key:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_objects_read_back() {
        let text = object(&[
            ("name", string("a \"quoted\"\tname\\\n")),
            ("value", number(1.2034)),
            ("tiny", number(0.000_000_123)),
            ("big", number(12_345_678_901.5)),
            ("whole", number(3.0)),
        ]);
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(field_str(&parsed, "name").unwrap(), "a \"quoted\"\tname\\\n");
        assert_eq!(field_f64(&parsed, "value").unwrap(), 1.2034);
        assert_eq!(field_f64(&parsed, "tiny").unwrap(), 0.000_000_123);
        assert_eq!(field_f64(&parsed, "big").unwrap(), 12_345_678_901.5);
        assert_eq!(field_f64(&parsed, "whole").unwrap(), 3.0);
        assert!(field_f64(&parsed, "absent").is_err());
    }

    #[test]
    fn result_line_has_the_contracts_keys() {
        let line = result_line(true, 7, 0, &[("latency_ms", "ms", 1.2034), ("setup_s", "s", 0.8127)]);
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("valid JSON");
        let Json::Obj(fields) = &parsed else { panic!("an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(field_f64(&parsed, "attempted").unwrap(), 7.0);
        let setup = parsed.get("metrics").and_then(|m| m.get("setup_s")).expect("setup_s");
        assert_eq!((field_f64(setup, "value").unwrap(), field_str(setup, "unit").unwrap()), (0.8127, "s"));
    }
}
