//! Request/response JSON for the prediction API.
//!
//! Requests are parsed through the `serde_json` shim's `Value` model.
//! Responses are *written by hand* into strings for a load-bearing reason:
//! the **verdict fragment** (the `"verdict"` object) must be byte-identical
//! whenever the underlying verdict is bit-identical, because the verdict
//! cache replays stored fragments verbatim and the bench gate compares
//! served fragments against [`remix_core::Remix::predict`] ground truth.
//! Floats are rendered with Rust's shortest round-trip `Display`, so equal
//! fragment bytes ⇔ equal float bits (modulo the sign of zero, which the
//! pipeline never produces distinctly). Per-request transport fields
//! (`cached`, `latency_us`) live in the envelope *outside* the fragment.

use remix_core::RemixVerdict;
use remix_ensemble::Prediction;
use remix_xai::XaiLevel;
use serde::Value;
use std::fmt::Write as _;

/// Longest `deadline_ms` a request may carry: one hour. A larger value
/// (up to `1e300`, which saturates to `u64::MAX` ms) would silently mean
/// "never degrade".
const MAX_DEADLINE_MS: f64 = 3_600_000.0;

/// One parsed `/predict` request body.
#[derive(Debug, Clone)]
pub struct PredictRequest {
    /// Flattened `[C, H, W]` input in row-major order.
    pub image: Vec<f32>,
    /// Per-request deadline override in milliseconds. `Some(0)` forces the
    /// degraded path for any disagreement (used to test the fallback);
    /// `None` uses the server default. At most one hour.
    pub deadline_ms: Option<u64>,
    /// Skip the verdict cache for this request (both lookup and insert).
    pub no_cache: bool,
    /// Named model group to route to; `None` uses the server's first
    /// (default) group.
    pub model: Option<String>,
}

/// Parses a `/predict` body.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing
/// `image` array or one with an entry that is not a finite f32, a
/// `deadline_ms` outside 0..=3600000, or wrong field types.
pub fn parse_predict(body: &[u8]) -> Result<PredictRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let value: Value = serde_json::from_str(text).map_err(|e| format!("invalid json: {e:?}"))?;
    let pairs = value
        .as_object()
        .ok_or_else(|| "body must be a json object".to_string())?;
    let image_value = field(pairs, "image").ok_or_else(|| "missing `image` array".to_string())?;
    let image = image_value
        .as_array()
        .ok_or_else(|| "`image` must be an array".to_string())?
        .iter()
        // A number beyond f32 range would become ±inf and reach the models.
        .map(|v| num(v).map(|f| f as f32).filter(|f| f.is_finite()))
        .collect::<Option<Vec<f32>>>()
        .ok_or_else(|| "`image` entries must be finite f32 numbers".to_string())?;
    let deadline_ms = match field(pairs, "deadline_ms") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            num(v)
                .filter(|f| (0.0..=MAX_DEADLINE_MS).contains(f))
                .ok_or_else(|| {
                    "`deadline_ms` must be a number from 0 to 3600000 (one hour)".to_string()
                })? as u64,
        ),
    };
    let no_cache = match field(pairs, "no_cache") {
        None | Some(Value::Null) => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("`no_cache` must be a boolean".to_string()),
    };
    let model = match field(pairs, "model") {
        None | Some(Value::Null) => None,
        Some(Value::Str(name)) => Some(name.clone()),
        Some(_) => return Err("`model` must be a string".to_string()),
    };
    Ok(PredictRequest {
        image,
        deadline_ms,
        no_cache,
        model,
    })
}

/// Parses a `POST /models/<name>/swap` body: an optional `version` string
/// (absent, `null`, or an empty body all mean "latest").
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON or a non-string
/// `version`.
pub fn parse_swap(body: &[u8]) -> Result<Option<String>, String> {
    if body.iter().all(|b| b.is_ascii_whitespace()) {
        return Ok(None);
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let value: Value = serde_json::from_str(text).map_err(|e| format!("invalid json: {e:?}"))?;
    let pairs = value
        .as_object()
        .ok_or_else(|| "body must be a json object".to_string())?;
    match field(pairs, "version") {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(version)) => Ok(Some(version.clone())),
        Some(_) => Err("`version` must be a string".to_string()),
    }
}

/// Renders the full ReMIX verdict fragment (non-degraded path).
pub fn verdict_fragment(verdict: &RemixVerdict) -> String {
    let mut out = String::with_capacity(128 + verdict.details.len() * 96);
    out.push('{');
    push_prediction(&mut out, &verdict.prediction);
    let _ = write!(
        out,
        ",\"unanimous\":{},\"degraded\":false,\"xai_level\":\"{}\",\"details\":[",
        verdict.unanimous,
        verdict.xai_level.as_str(),
    );
    for (i, d) in verdict.details.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"pred\":{},\"confidence\":{},\"diversity\":{},\"sparseness\":{},\"weight\":{}}}",
            json_string(&d.name),
            d.pred,
            fmt_f32(d.confidence),
            fmt_f32(d.diversity),
            fmt_f32(d.sparseness),
            fmt_f32(d.weight),
        );
    }
    out.push_str("]}");
    out
}

/// Renders the degraded (deadline-expired) verdict fragment: the plain
/// majority-vote decision, with no per-model evidence because the XAI stage
/// never ran — which is also why the level tag is [`XaiLevel::Skip`].
pub fn degraded_fragment(prediction: &Prediction) -> String {
    let mut out = String::with_capacity(96);
    out.push('{');
    push_prediction(&mut out, prediction);
    let _ = write!(
        out,
        ",\"unanimous\":false,\"degraded\":true,\"xai_level\":\"{}\",\"details\":[]}}",
        XaiLevel::Skip.as_str(),
    );
    out
}

/// Wraps a verdict fragment with the per-request transport fields.
pub fn envelope(fragment: &str, cached: bool, latency_us: u64) -> String {
    format!("{{\"verdict\":{fragment},\"cached\":{cached},\"latency_us\":{latency_us}}}")
}

/// Renders an error body.
pub fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}", json_string(message))
}

fn push_prediction(out: &mut String, prediction: &Prediction) {
    match prediction {
        Prediction::Decided(class) => {
            let _ = write!(out, "\"prediction\":{class},\"decided\":true");
        }
        Prediction::NoMajority => out.push_str("\"prediction\":null,\"decided\":false"),
    }
}

/// Shortest round-trip rendering; non-finite values become `null` (matching
/// the serde shim's serializer) so the fragment stays valid JSON.
pub(crate) fn fmt_f32(f: f32) -> String {
    if f.is_finite() {
        f.to_string()
    } else {
        "null".to_string()
    }
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Field lookup on a parsed JSON object.
fn field<'a>(pairs: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Numeric coercion across the shim's three number variants.
fn num(value: &Value) -> Option<f64> {
    match value {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_and_full_requests() {
        let req = parse_predict(br#"{"image":[0.5,1,2.25]}"#).unwrap();
        assert_eq!(req.image, vec![0.5, 1.0, 2.25]);
        assert_eq!(req.deadline_ms, None);
        assert!(!req.no_cache);
        let req = parse_predict(br#"{"image":[0],"deadline_ms":0,"no_cache":true}"#).unwrap();
        assert_eq!(req.deadline_ms, Some(0));
        assert!(req.no_cache);
        assert_eq!(req.model, None);
        let req = parse_predict(br#"{"image":[0],"model":"tabular"}"#).unwrap();
        assert_eq!(req.model.as_deref(), Some("tabular"));
    }

    #[test]
    fn parses_swap_bodies() {
        assert_eq!(parse_swap(b"").unwrap(), None);
        assert_eq!(parse_swap(b"  \r\n").unwrap(), None);
        assert_eq!(parse_swap(b"{}").unwrap(), None);
        assert_eq!(parse_swap(br#"{"version":null}"#).unwrap(), None);
        assert_eq!(
            parse_swap(br#"{"version":"2.0.0"}"#).unwrap().as_deref(),
            Some("2.0.0")
        );
        assert!(parse_swap(b"not json").is_err());
        assert!(parse_swap(br#"{"version":7}"#).is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_predict(b"not json").is_err());
        assert!(parse_predict(br#"{"deadline_ms":5}"#).is_err());
        assert!(parse_predict(br#"{"image":["a"]}"#).is_err());
        assert!(parse_predict(br#"{"image":[1],"deadline_ms":-3}"#).is_err());
        assert!(parse_predict(br#"{"image":[1],"deadline_ms":3600001}"#).is_err());
        assert!(parse_predict(br#"{"image":[1],"deadline_ms":1e300}"#).is_err());
        let hour = parse_predict(br#"{"image":[1],"deadline_ms":3600000}"#).unwrap();
        assert_eq!(hour.deadline_ms, Some(3_600_000));
        assert!(parse_predict(br#"{"image":[1],"no_cache":1}"#).is_err());
        assert!(parse_predict(br#"{"image":[1],"model":7}"#).is_err());
        // Beyond f32 range: the cast would turn these into ±inf.
        for body in [r#"{"image":[0.5,1e39]}"#, r#"{"image":[-1e39,0.5]}"#] {
            let err = parse_predict(body.as_bytes()).unwrap_err();
            assert!(err.contains("finite"), "{err}");
        }
    }

    #[test]
    fn fragments_are_valid_json_and_distinguish_paths() {
        let degraded = degraded_fragment(&Prediction::Decided(4));
        assert_eq!(
            degraded,
            r#"{"prediction":4,"decided":true,"unanimous":false,"degraded":true,"xai_level":"skip","details":[]}"#
        );
        let none = degraded_fragment(&Prediction::NoMajority);
        assert!(none.contains("\"prediction\":null,\"decided\":false"));
        // Fragments and envelopes must re-parse through the shim.
        let body = envelope(&degraded, true, 17);
        let value: Value = serde_json::from_str(&body).unwrap();
        let pairs = value.as_object().unwrap();
        assert!(matches!(field(pairs, "cached"), Some(Value::Bool(true))));
        assert!(matches!(field(pairs, "latency_us"), Some(Value::UInt(17))));
    }

    #[test]
    fn float_rendering_round_trips_bits() {
        for f in [0.1f32, 1.0, 3.4e38, 1e-40, 0.333_333_34] {
            let text = fmt_f32(f);
            assert_eq!(
                text.parse::<f32>().unwrap().to_bits(),
                f.to_bits(),
                "{text}"
            );
        }
        assert_eq!(fmt_f32(f32::NAN), "null");
    }
}
