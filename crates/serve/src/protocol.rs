//! The `lubt-serve-v1` wire protocol.
//!
//! One JSON object per line, in both directions. Requests name an `op`
//! (`ping`, `solve`, `audit`, `lint`, `batch`, `shutdown`) plus the
//! instance(s) and delay window; responses echo the request `id` and
//! carry either the payload or a machine-readable error code. Parsing is
//! **strict**: unknown fields, duplicate keys (rejected by the JSON
//! layer), wrong types, non-finite coordinates and out-of-range knobs
//! are all `bad-request` — on a wire surface, silently ignoring a
//! mistyped field is how a client ships with bounds that never applied.
//!
//! Responses are built from the same formatting helpers regardless of
//! how the result was produced, which is half of the cold/cached/warm
//! byte-identity contract (the other half is the solver's own §9
//! determinism).

use lubt_core::{LubtError, SolverBackend};
use lubt_data::Instance;
use lubt_geom::Point;
use lubt_obs::json::{json_escape, Value};

/// Protocol identifier, echoed in every response `schema` field.
pub const PROTOCOL: &str = "lubt-serve-v1";

/// Machine-readable error codes.
pub mod codes {
    /// Malformed JSON, unknown/mistyped fields, invalid instances.
    pub const BAD_REQUEST: &str = "bad-request";
    /// Request frame exceeded the configured byte cap.
    pub const OVERSIZED: &str = "oversized";
    /// The admission queue is at capacity.
    pub const QUEUE_FULL: &str = "queue-full";
    /// The request's deadline passed before a worker picked it up.
    pub const DEADLINE_EXPIRED: &str = "deadline-expired";
    /// The daemon is draining; no new work is admitted.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The op exists but is disabled by configuration.
    pub const FORBIDDEN: &str = "forbidden";
    /// The LP is infeasible: no LUBT exists for these bounds (a
    /// certificate, not a failure).
    pub const INFEASIBLE: &str = "infeasible";
    /// The pre-solve lint rejected the instance before any LP was built.
    pub const REJECTED: &str = "rejected";
    /// The exact certificate audit refuted the solver's output.
    pub const AUDIT_FAILED: &str = "audit-failed";
    /// Any other solver-side failure (iteration limit, numerics, ...).
    pub const SOLVER_ERROR: &str = "solver-error";
}

/// Request operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Solve one instance (cache + warm pool eligible).
    Solve,
    /// Solve one instance with exact certificate auditing (always cold).
    Audit,
    /// Static feasibility lint, no LP.
    Lint,
    /// Solve many instances through the batch path.
    Batch,
    /// Begin graceful shutdown (requires `--allow-shutdown`).
    Shutdown,
}

impl Op {
    /// The wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Solve => "solve",
            Op::Audit => "audit",
            Op::Lint => "lint",
            Op::Batch => "batch",
            Op::Shutdown => "shutdown",
        }
    }
}

/// A protocol-level rejection: the error code plus a human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// One of [`codes`].
    pub code: &'static str,
    /// Human-readable detail, safe to echo to the client.
    pub message: String,
}

impl ProtocolError {
    fn bad(message: impl Into<String>) -> Self {
        ProtocolError {
            code: codes::BAD_REQUEST,
            message: message.into(),
        }
    }
}

/// A validated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// Scheduling priority `0..=9` (higher pops sooner; default 5).
    pub priority: u8,
    /// Optional deadline in milliseconds from admission.
    pub deadline_ms: Option<u64>,
    /// The instance(s): exactly one for `solve`/`audit`/`lint`, any
    /// number for `batch`, empty for `ping`/`shutdown`.
    pub instances: Vec<Instance>,
    /// Lower delay bound as sent (radius-relative unless `absolute`).
    pub lower: f64,
    /// Upper delay bound as sent; `None` only for `lint` (no cap).
    pub upper: Option<f64>,
    /// When true, `lower`/`upper` are absolute wire units.
    pub absolute: bool,
    /// LP backend for `solve`/`audit`/`batch`.
    pub backend: SolverBackend,
}

impl Request {
    /// The absolute delay window for `inst`, mirroring the CLI's
    /// radius-relative convention (`upper` `None` maps to `+inf`, the
    /// lint default).
    pub fn window_for(&self, inst: &Instance) -> (f64, f64) {
        let scale = if self.absolute { 1.0 } else { inst.radius() };
        (
            self.lower * scale,
            self.upper.map_or(f64::INFINITY, |u| u * scale),
        )
    }

    /// The result-cache / session-pool key for `inst` under this
    /// request's solving parameters: canonical instance digest plus the
    /// window *resolved to absolute units*, so relative and absolute
    /// spellings of the same window share an entry. (`+ 0.0` folds
    /// `-0.0` into `0.0` so the two zero spellings cannot split keys.)
    pub fn cache_key(&self, inst: &Instance) -> String {
        let (lo, up) = self.window_for(inst);
        format!(
            "{:?}|{}|{}|{}",
            self.backend,
            lo + 0.0,
            up + 0.0,
            lubt_data::canonical::canonical_digest(inst)
        )
    }
}

fn parse_point(v: &Value, what: &str) -> Result<Point, ProtocolError> {
    let items = v
        .as_array()
        .ok_or_else(|| ProtocolError::bad(format!("{what} must be a [x, y] array")))?;
    if items.len() != 2 {
        return Err(ProtocolError::bad(format!(
            "{what} must have exactly 2 coordinates, got {}",
            items.len()
        )));
    }
    let mut xy = [0.0f64; 2];
    for (k, item) in items.iter().enumerate() {
        let c = item
            .as_f64()
            .ok_or_else(|| ProtocolError::bad(format!("{what} coordinates must be numbers")))?;
        if !c.is_finite() {
            return Err(ProtocolError::bad(format!(
                "{what} coordinates must be finite"
            )));
        }
        xy[k] = c;
    }
    Ok(Point::new(xy[0], xy[1]))
}

fn parse_instance(v: &Value) -> Result<Instance, ProtocolError> {
    let pairs = v
        .as_object()
        .ok_or_else(|| ProtocolError::bad("instance must be an object"))?;
    let mut name = String::new();
    let mut source = None;
    let mut sinks = Vec::new();
    for (key, value) in pairs {
        match key.as_str() {
            "name" => {
                name = value
                    .as_str()
                    .ok_or_else(|| ProtocolError::bad("instance name must be a string"))?
                    .to_string();
            }
            "source" => {
                source = match value {
                    Value::Null => None,
                    other => Some(parse_point(other, "source")?),
                };
            }
            "sinks" => {
                let items = value
                    .as_array()
                    .ok_or_else(|| ProtocolError::bad("sinks must be an array of [x, y]"))?;
                sinks = items
                    .iter()
                    .map(|p| parse_point(p, "sink"))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            other => {
                return Err(ProtocolError::bad(format!(
                    "unknown instance field {other:?}"
                )))
            }
        }
    }
    if sinks.is_empty() {
        return Err(ProtocolError::bad("instance needs at least one sink"));
    }
    Ok(Instance::new(name, source, sinks))
}

fn parse_bound(value: &Value, what: &str) -> Result<f64, ProtocolError> {
    let x = value
        .as_f64()
        .ok_or_else(|| ProtocolError::bad(format!("{what} must be a number")))?;
    if !x.is_finite() {
        return Err(ProtocolError::bad(format!("{what} must be finite")));
    }
    Ok(x)
}

/// Validates one parsed request document.
///
/// # Errors
///
/// [`ProtocolError`] with code `bad-request` describing the first
/// problem found.
pub fn parse_request(doc: &Value) -> Result<Request, ProtocolError> {
    let pairs = doc
        .as_object()
        .ok_or_else(|| ProtocolError::bad("request must be a JSON object"))?;
    let mut op = None;
    let mut id = String::new();
    let mut priority = 5u8;
    let mut deadline_ms = None;
    let mut instances = Vec::new();
    let mut saw_instances_field = false;
    let mut lower = 0.0;
    let mut upper = None;
    let mut absolute = false;
    let mut backend = SolverBackend::default();
    for (key, value) in pairs {
        match key.as_str() {
            "op" => {
                op = Some(match value.as_str() {
                    Some("ping") => Op::Ping,
                    Some("solve") => Op::Solve,
                    Some("audit") => Op::Audit,
                    Some("lint") => Op::Lint,
                    Some("batch") => Op::Batch,
                    Some("shutdown") => Op::Shutdown,
                    Some(other) => {
                        return Err(ProtocolError::bad(format!(
                            "unknown op {other:?} (ping|solve|audit|lint|batch|shutdown)"
                        )))
                    }
                    None => return Err(ProtocolError::bad("op must be a string")),
                });
            }
            "id" => {
                id = value
                    .as_str()
                    .ok_or_else(|| ProtocolError::bad("id must be a string"))?
                    .to_string();
            }
            "priority" => {
                let p = value
                    .as_u64()
                    .ok_or_else(|| ProtocolError::bad("priority must be an integer"))?;
                if p > 9 {
                    return Err(ProtocolError::bad(format!(
                        "priority must be 0..=9, got {p}"
                    )));
                }
                priority = p as u8;
            }
            "deadline_ms" => {
                deadline_ms = Some(
                    value
                        .as_u64()
                        .ok_or_else(|| ProtocolError::bad("deadline_ms must be an integer"))?,
                );
            }
            "instance" => instances.push(parse_instance(value)?),
            "instances" => {
                saw_instances_field = true;
                let items = value
                    .as_array()
                    .ok_or_else(|| ProtocolError::bad("instances must be an array"))?;
                for item in items {
                    instances.push(parse_instance(item)?);
                }
            }
            "lower" => lower = parse_bound(value, "lower")?,
            "upper" => upper = Some(parse_bound(value, "upper")?),
            "absolute" => {
                absolute = match value {
                    Value::Bool(b) => *b,
                    _ => return Err(ProtocolError::bad("absolute must be a boolean")),
                };
            }
            "backend" => {
                backend = match value.as_str() {
                    Some("simplex") => SolverBackend::Simplex,
                    Some("revised") => SolverBackend::Revised,
                    Some("dp") => SolverBackend::Dp,
                    Some(other) => {
                        return Err(ProtocolError::bad(format!(
                            "unknown backend {other:?} (simplex|revised|dp)"
                        )))
                    }
                    None => return Err(ProtocolError::bad("backend must be a string")),
                };
            }
            other => return Err(ProtocolError::bad(format!("unknown field {other:?}"))),
        }
    }
    let op = op.ok_or_else(|| ProtocolError::bad("missing required field \"op\""))?;
    match op {
        Op::Ping | Op::Shutdown => {
            if !instances.is_empty() {
                return Err(ProtocolError::bad(format!(
                    "{:?} takes no instance",
                    op.name()
                )));
            }
        }
        Op::Solve | Op::Audit | Op::Lint => {
            if saw_instances_field {
                return Err(ProtocolError::bad(format!(
                    "{} takes a single \"instance\", not \"instances\"",
                    op.name()
                )));
            }
            if instances.len() != 1 {
                return Err(ProtocolError::bad(format!(
                    "{} requires an \"instance\"",
                    op.name()
                )));
            }
        }
        Op::Batch => {
            if !saw_instances_field || instances.is_empty() {
                return Err(ProtocolError::bad(
                    "batch requires a non-empty \"instances\" array",
                ));
            }
        }
    }
    if matches!(op, Op::Solve | Op::Audit | Op::Batch) && upper.is_none() {
        return Err(ProtocolError::bad(format!(
            "{} requires \"upper\"",
            op.name()
        )));
    }
    Ok(Request {
        op,
        id,
        priority,
        deadline_ms,
        instances,
        lower,
        upper,
        absolute,
        backend,
    })
}

/// Collapses a pretty-printed JSON document to one line. The repo's
/// emitters only break lines between tokens (JSON strings cannot span
/// lines), so dropping the newline plus the next line's indentation is
/// exact.
pub fn single_line(doc: &str) -> String {
    doc.lines().map(str::trim_start).collect()
}

fn response_head(id: &str, op: Op) -> String {
    format!(
        "{{\"schema\":\"{PROTOCOL}\",\"id\":\"{}\",\"op\":\"{}\",\"status\":",
        json_escape(id),
        op.name()
    )
}

/// The `ping` response.
pub fn ok_ping(id: &str) -> String {
    format!(
        "{}\"ok\",\"protocol\":\"{PROTOCOL}\"}}",
        response_head(id, Op::Ping)
    )
}

/// The `shutdown` acknowledgement.
pub fn ok_shutdown(id: &str) -> String {
    format!(
        "{}\"ok\",\"draining\":true}}",
        response_head(id, Op::Shutdown)
    )
}

/// A successful `solve`/`audit` response wrapping a single-line
/// solution document. The payload is byte-identical across serving
/// modes, so the whole response is too.
pub fn ok_solution(id: &str, op: Op, payload: &str) -> String {
    let audited = if op == Op::Audit {
        "\"audited\":true,"
    } else {
        ""
    };
    format!(
        "{}\"ok\",{audited}\"solution\":{payload}}}",
        response_head(id, op)
    )
}

/// A successful `lint` response wrapping single-line diagnostics.
pub fn ok_lint(id: &str, deny: bool, payload: &str) -> String {
    format!(
        "{}\"ok\",\"deny\":{deny},\"diagnostics\":{payload}}}",
        response_head(id, Op::Lint)
    )
}

/// One element of a `batch` response: a solved payload.
pub fn batch_part_ok(payload: &str) -> String {
    format!("{{\"status\":\"ok\",\"solution\":{payload}}}")
}

/// One element of a `batch` response: a per-instance failure.
pub fn batch_part_err(code: &str, message: &str) -> String {
    format!(
        "{{\"status\":\"error\",\"code\":\"{code}\",\"message\":\"{}\"}}",
        json_escape(message)
    )
}

/// A successful `batch` response from per-instance parts.
pub fn ok_batch(id: &str, parts: &[String]) -> String {
    format!(
        "{}\"ok\",\"results\":[{}]}}",
        response_head(id, Op::Batch),
        parts.join(",")
    )
}

/// An error response (any op, also pre-parse failures with an empty
/// `id`).
pub fn error_response(id: &str, code: &str, message: &str) -> String {
    format!(
        "{{\"schema\":\"{PROTOCOL}\",\"id\":\"{}\",\"status\":\"error\",\"code\":\"{code}\",\"message\":\"{}\"}}",
        json_escape(id),
        json_escape(message)
    )
}

/// Maps a solver failure to its wire error code.
pub fn error_code_for(e: &LubtError) -> &'static str {
    match e {
        LubtError::Input(_) => codes::BAD_REQUEST,
        LubtError::Infeasible => codes::INFEASIBLE,
        LubtError::Rejected(_) => codes::REJECTED,
        LubtError::Audit(_) => codes::AUDIT_FAILED,
        _ => codes::SOLVER_ERROR,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lubt_obs::json::parse;

    fn req(text: &str) -> Result<Request, ProtocolError> {
        parse_request(&parse(text).expect("test doc parses"))
    }

    #[test]
    fn parses_a_full_solve_request() {
        let r = req(r#"{"op":"solve","id":"r1","priority":7,"deadline_ms":250,
                "instance":{"name":"n","source":[5,5],"sinks":[[0,0],[10,0]]},
                "lower":0.5,"upper":1.2,"backend":"simplex"}"#)
        .unwrap();
        assert_eq!(r.op, Op::Solve);
        assert_eq!(r.id, "r1");
        assert_eq!(r.priority, 7);
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.instances.len(), 1);
        assert_eq!(r.backend, SolverBackend::Simplex);
        let (lo, up) = r.window_for(&r.instances[0]);
        let radius = r.instances[0].radius();
        assert!((lo - 0.5 * radius).abs() < 1e-12);
        assert!((up - 1.2 * radius).abs() < 1e-12);
    }

    #[test]
    fn strictness_rejects_what_a_file_parser_would_shrug_at() {
        let cases = [
            (r#"[1,2]"#, "request must be a JSON object"),
            (r#"{"id":"x"}"#, "missing required field \"op\""),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"ping","prio":3}"#, "unknown field \"prio\""),
            (r#"{"op":"ping","priority":10}"#, "priority must be 0..=9"),
            (
                r#"{"op":"ping","priority":1.5}"#,
                "priority must be an integer",
            ),
            (r#"{"op":"solve","upper":1.0}"#, "requires an \"instance\""),
            (
                r#"{"op":"solve","instance":{"sinks":[[0,0]]}}"#,
                "requires \"upper\"",
            ),
            (
                r#"{"op":"solve","upper":1.0,"instance":{"sinks":[]}}"#,
                "at least one sink",
            ),
            (
                r#"{"op":"solve","upper":1.0,"instance":{"sinks":[[0,0,0]]}}"#,
                "exactly 2 coordinates",
            ),
            (
                r#"{"op":"solve","upper":1e999,"instance":{"sinks":[[0,0]]}}"#,
                "upper must be finite",
            ),
            (
                r#"{"op":"solve","upper":1.0,"instance":{"sinks":[[0,0]],"die":10}}"#,
                "unknown instance field",
            ),
            (
                r#"{"op":"batch","upper":1.0,"instances":[]}"#,
                "non-empty \"instances\"",
            ),
            (
                r#"{"op":"lint","instances":[{"sinks":[[0,0]]}]}"#,
                "single \"instance\"",
            ),
            (
                r#"{"op":"shutdown","instance":{"sinks":[[0,0]]}}"#,
                "takes no instance",
            ),
            (
                r#"{"op":"solve","upper":1.0,"absolute":1,"instance":{"sinks":[[0,0]]}}"#,
                "absolute must be a boolean",
            ),
            (
                r#"{"op":"solve","upper":1.0,"backend":"gpu","instance":{"sinks":[[0,0]]}}"#,
                "unknown backend",
            ),
            (
                r#"{"op":"solve","upper":1.0,"backend":"ipm","instance":{"sinks":[[0,0]]}}"#,
                "unknown backend \"ipm\" (simplex|revised|dp)",
            ),
        ];
        for (text, needle) in cases {
            let err = req(text).expect_err(text);
            assert_eq!(err.code, codes::BAD_REQUEST, "{text}");
            assert!(
                err.message.contains(needle),
                "{text}: {:?} missing {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn cache_keys_unify_spellings_and_split_semantics() {
        let a = req(r#"{"op":"solve","upper":1.0,"instance":{"name":"t","sinks":[[0,0],[10,0]]}}"#)
            .unwrap();
        // The same window spelled absolutely (radius of t is 10 from the
        // implied centroid source... compute via the instance itself).
        let inst = &a.instances[0];
        let (lo, up) = a.window_for(inst);
        let b = Request {
            absolute: true,
            lower: lo,
            upper: Some(up),
            ..a.clone()
        };
        assert_eq!(a.cache_key(inst), b.cache_key(inst));
        // A different backend or window must split.
        let c = Request {
            backend: SolverBackend::Simplex,
            ..a.clone()
        };
        assert_ne!(a.cache_key(inst), c.cache_key(inst));
        let d = Request {
            upper: Some(2.0),
            ..a.clone()
        };
        assert_ne!(a.cache_key(inst), d.cache_key(inst));
    }

    #[test]
    fn responses_are_single_line_and_echo_ids() {
        let multi = "{\n  \"cost\": 1.5,\n  \"edges\": [\n    1,\n    2\n  ]\n}\n";
        let flat = single_line(multi);
        assert_eq!(flat, "{\"cost\": 1.5,\"edges\": [1,2]}");
        for line in [
            ok_ping("a\"b"),
            ok_solution("a\"b", Op::Solve, &flat),
            ok_solution("a\"b", Op::Audit, &flat),
            ok_lint("a\"b", true, "[]"),
            ok_batch(
                "a\"b",
                &[
                    batch_part_ok(&flat),
                    batch_part_err("infeasible", "no\nway"),
                ],
            ),
            ok_shutdown("a\"b"),
            error_response("a\"b", codes::QUEUE_FULL, "try\nlater"),
        ] {
            assert!(!line.contains('\n'), "one frame per line: {line}");
            assert!(line.contains("a\\\"b"), "id is escaped: {line}");
            let doc = parse(&line).expect("every response parses as strict JSON");
            assert_eq!(doc.get("schema").and_then(Value::as_str), Some(PROTOCOL));
        }
        assert!(ok_solution("x", Op::Audit, "{}").contains("\"audited\":true"));
        assert!(!ok_solution("x", Op::Solve, "{}").contains("audited"));
    }

    #[test]
    fn solver_errors_map_to_stable_codes() {
        assert_eq!(
            error_code_for(&LubtError::Input("x".into())),
            codes::BAD_REQUEST
        );
        assert_eq!(error_code_for(&LubtError::Infeasible), codes::INFEASIBLE);
        assert_eq!(
            error_code_for(&LubtError::Rejected(Vec::new())),
            codes::REJECTED
        );
        assert_eq!(
            error_code_for(&LubtError::Audit(Vec::new())),
            codes::AUDIT_FAILED
        );
        assert_eq!(
            error_code_for(&LubtError::Embedding { node: 3 }),
            codes::SOLVER_ERROR
        );
    }
}
