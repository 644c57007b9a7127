//! The scanner the committed `BENCH_*.json` baselines are read back with:
//! purpose-built for the exact shape their `to_json` writers emit — a
//! `schema` string and one array of flat objects — not a general JSON
//! parser. The workspace has no serde and does not want one.

/// The string value of `key` in the flat object `obj`.
pub(crate) fn string(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The numeric value of `key` in the flat object `obj`.
pub(crate) fn number(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Checks the document's `schema` tag and returns the `{…}` objects of
/// its `array` field, in order. An empty array is an error: a baseline
/// with nothing to gate against is a broken baseline.
pub(crate) fn objects<'a>(
    json: &'a str,
    schema: &str,
    array: &str,
) -> Result<Vec<&'a str>, String> {
    match string(json, "schema") {
        Some(s) if s == schema => {}
        Some(s) => return Err(format!("unsupported baseline schema {s:?} (expected {schema:?})")),
        None => return Err("baseline file has no \"schema\" field".into()),
    }
    let array_at = json
        .find(&format!("\"{array}\""))
        .ok_or_else(|| format!("baseline file has no \"{array}\" array"))?;
    let mut objects = Vec::new();
    let mut rest = &json[array_at..];
    while let Some(open) = rest.find('{') {
        let close = rest[open..]
            .find('}')
            .map(|c| open + c)
            .ok_or_else(|| format!("unterminated object in \"{array}\""))?;
        objects.push(&rest[open..=close]);
        rest = &rest[close + 1..];
    }
    if objects.is_empty() {
        return Err(format!("baseline file has an empty \"{array}\" array"));
    }
    Ok(objects)
}
