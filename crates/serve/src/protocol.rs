//! The wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! One frame = a 4-byte big-endian length followed by that many bytes of
//! compact JSON (the [`gep_obs::Json`] writer — the workspace carries no
//! serde). Both directions use the same framing; a connection is a
//! sequence of request/response frame pairs, in order, one in flight per
//! connection (pipelining is the load generator's `--workers` knob, not
//! the protocol's).
//!
//! ## Requests
//!
//! ```json
//! {"op":"dist","u":0,"v":5}
//! {"op":"path","u":0,"v":5}
//! {"op":"reach","u":0,"v":5}
//! {"op":"mutate","edges":[[0,5,12],[3,4,7]]}
//! {"op":"status"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! A mutation triple `[u, v, w]` sets the weight of the directed edge
//! `u → v` to `w`; any `w ≥` [`TROPICAL_INF`] deletes the edge, and
//! diagonal entries (`u == v`) are ignored (the distance of a vertex to
//! itself is pinned at 0). Weights must be non-negative; a batch with a
//! negative `w` is rejected whole. The whole `edges` array enters the
//! server's batch buffer atomically, so one `mutate` request is
//! re-solved as one batch.
//!
//! ## Responses
//!
//! Every response carries `"ok"` and the `"epoch"` of the cached solve it
//! was answered from (mutations/status report the epoch current at accept
//! time). Epochs are monotone non-decreasing over any connection — the
//! client-visible proof that an atomic swap, not a torn read, publishes
//! each re-solve.
//!
//! ```json
//! {"ok":true,"epoch":1,"dist":12,"trace":"s3-1"}   // dist; null = unreachable
//! {"ok":true,"epoch":1,"dist":12,"path":[0,2,5],"trace":"s3-2"}
//! {"ok":true,"epoch":1,"reach":true,"trace":"abc"}
//! {"ok":true,"epoch":1,"pending":2,"trace":"s3-3"} // mutate: batch depth after accept
//! {"ok":true,"epoch":2,"n":512,...,"trace":"s3-4"} // status
//! {"ok":true,"epoch":2,"metrics":{...},"trace":"s3-5"}
//! {"ok":false,"epoch":1,"error":"...","trace":"s3-6"}
//! ```
//!
//! ## Trace envelope
//!
//! Any request may carry a `"trace"` field: a 1–[`MAX_TRACE_BYTES`]-byte
//! printable-ASCII id the client mints to correlate its own logs with
//! the server's. The server echoes it verbatim in the response; requests
//! without one get a server-assigned id (`s<conn>-<seq>`, unique per
//! connection). A malformed trace id (wrong type, empty, oversized,
//! non-printable) is rejected with an `ok:false` response — stamped with
//! a server-assigned id — and the connection survives, like any other
//! malformed request. Trace ids also key the server's slow-request
//! flight-recorder events, so one over-threshold request can be chased
//! from client log to server phase breakdown.

use gep_obs::Json;
use std::io::{self, Read, Write};

pub use gep_core::algebra::TROPICAL_INF;

/// Frames larger than this are rejected as malformed (1 MiB covers any
/// realistic mutation batch or path response by orders of magnitude).
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Serializes one frame to bytes: 4-byte big-endian length, then the
/// compact JSON. Split out from [`write_frame`] so a server can time its
/// serialize and write phases separately.
pub fn encode_frame(msg: &Json) -> io::Result<Vec<u8>> {
    let mut body = String::new();
    msg.write_into(&mut body);
    let len = body.len() as u32;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds {MAX_FRAME_BYTES}"),
        ));
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    Ok(out)
}

/// Writes one already-encoded frame and flushes it onto the wire.
pub fn write_encoded(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Writes one frame: 4-byte big-endian length, then the compact JSON.
pub fn write_frame(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    write_encoded(w, &encode_frame(msg)?)
}

/// Reads one frame as raw UTF-8 text, plus the instant its first byte
/// arrived — the `t0` every per-phase request timing telescopes from.
/// `Ok(None)` on clean end-of-stream (the peer closed between frames);
/// a torn frame or non-UTF-8 body is an error. JSON parsing is the
/// caller's (separately timed) phase.
pub fn read_frame_raw(r: &mut impl Read) -> io::Result<Option<(String, std::time::Instant)>> {
    let mut len_bytes = [0u8; 4];
    if r.read(&mut len_bytes[..1])? == 0 {
        return Ok(None); // clean EOF at a frame boundary
    }
    let started = std::time::Instant::now();
    r.read_exact(&mut len_bytes[1..])?;
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds {MAX_FRAME_BYTES}"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not UTF-8: {e}")))?;
    Ok(Some((text, started)))
}

/// Reads one frame. `Ok(None)` on clean end-of-stream (the peer closed
/// between frames); any torn frame or malformed JSON is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    let Some((text, _)) = read_frame_raw(r)? else {
        return Ok(None);
    };
    Json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not JSON: {e}")))
}

/// One directed-edge weight update: set `u → v` to `w ≥ 0` (`w ≥`
/// [`TROPICAL_INF`] deletes the edge).
pub type EdgeMut = (u32, u32, i64);

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Shortest distance `u → v`.
    Dist { u: u32, v: u32 },
    /// Shortest distance plus the vertex sequence of one shortest path.
    Path { u: u32, v: u32 },
    /// Reachability `u → v` (transitive closure through min-plus).
    Reach { u: u32, v: u32 },
    /// Batch of edge mutations, accepted atomically.
    Mutate { edges: Vec<EdgeMut> },
    /// Server/cache status.
    Status,
    /// Live metrics exposition (see [`gep_obs::expose`]).
    Metrics,
    /// Graceful shutdown: the server answers, drains, and exits.
    Shutdown,
}

impl Request {
    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Dist { u, v } => point("dist", *u, *v),
            Request::Path { u, v } => point("path", *u, *v),
            Request::Reach { u, v } => point("reach", *u, *v),
            Request::Mutate { edges } => Json::obj(vec![
                ("op", Json::Str("mutate".into())),
                (
                    "edges",
                    Json::Arr(
                        edges
                            .iter()
                            .map(|&(u, v, w)| {
                                Json::Arr(vec![
                                    Json::Int(u as i64),
                                    Json::Int(v as i64),
                                    Json::Int(w),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Request::Status => Json::obj(vec![("op", Json::Str("status".into()))]),
            Request::Metrics => Json::obj(vec![("op", Json::Str("metrics".into()))]),
            Request::Shutdown => Json::obj(vec![("op", Json::Str("shutdown".into()))]),
        }
    }

    /// Parses a request frame. The error string goes back to the client
    /// verbatim in an `ok:false` response.
    pub fn from_json(msg: &Json) -> Result<Request, String> {
        let op = msg
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field 'op'")?;
        let endpoint = |key: &str| -> Result<u32, String> {
            msg.get(key)
                .and_then(Json::as_u64)
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| format!("op '{op}' needs u32 field '{key}'"))
        };
        match op {
            "dist" => Ok(Request::Dist {
                u: endpoint("u")?,
                v: endpoint("v")?,
            }),
            "path" => Ok(Request::Path {
                u: endpoint("u")?,
                v: endpoint("v")?,
            }),
            "reach" => Ok(Request::Reach {
                u: endpoint("u")?,
                v: endpoint("v")?,
            }),
            "mutate" => {
                let arr = msg
                    .get("edges")
                    .and_then(Json::as_arr)
                    .ok_or("op 'mutate' needs array field 'edges'")?;
                let mut edges = Vec::with_capacity(arr.len());
                for (idx, triple) in arr.iter().enumerate() {
                    let parts = triple
                        .as_arr()
                        .filter(|p| p.len() == 3)
                        .ok_or_else(|| format!("edges[{idx}] must be [u, v, w]"))?;
                    let small = |i: usize| {
                        parts[i]
                            .as_u64()
                            .and_then(|x| u32::try_from(x).ok())
                            .ok_or_else(|| format!("edges[{idx}][{i}] must be a u32"))
                    };
                    let w = parts[2]
                        .as_i64()
                        .ok_or_else(|| format!("edges[{idx}][2] must be an i64 weight"))?;
                    edges.push((small(0)?, small(1)?, w));
                }
                Ok(Request::Mutate { edges })
            }
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op '{other}'")),
        }
    }

    /// The op name as it appears in metrics and reports.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Dist { .. } => "dist",
            Request::Path { .. } => "path",
            Request::Reach { .. } => "reach",
            Request::Mutate { .. } => "mutate",
            Request::Status => "status",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Longest accepted client-supplied trace id, in bytes.
pub const MAX_TRACE_BYTES: usize = 64;

/// Extracts the optional client-supplied trace id from a request frame.
/// `Ok(None)` when absent (the server assigns one); `Err` for ids of
/// the wrong type, empty, oversized, or containing anything but
/// printable ASCII — the error string goes back verbatim in an
/// `ok:false` response and the connection survives.
pub fn request_trace(msg: &Json) -> Result<Option<&str>, String> {
    match msg.get("trace") {
        None => Ok(None),
        Some(Json::Str(s)) => {
            if s.is_empty() || s.len() > MAX_TRACE_BYTES {
                Err(format!(
                    "trace id must be 1..={MAX_TRACE_BYTES} bytes, got {}",
                    s.len()
                ))
            } else if !s.bytes().all(|b| b.is_ascii_graphic()) {
                Err("trace id must be printable ASCII without spaces".into())
            } else {
                Ok(Some(s))
            }
        }
        Some(_) => Err("trace id must be a string".into()),
    }
}

/// Appends the trace id to a response (or request) object — the echo
/// half of the trace envelope.
pub fn with_trace(msg: Json, trace: &str) -> Json {
    match msg {
        Json::Obj(mut fields) => {
            fields.push(("trace".to_string(), Json::Str(trace.into())));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// The trace id echoed on a response.
pub fn response_trace(resp: &Json) -> Option<&str> {
    resp.get("trace").and_then(Json::as_str)
}

fn point(op: &str, u: u32, v: u32) -> Json {
    Json::obj(vec![
        ("op", Json::Str(op.into())),
        ("u", Json::Int(u as i64)),
        ("v", Json::Int(v as i64)),
    ])
}

/// Builds an `ok:true` response at `epoch` with extra payload fields.
pub fn ok_response(epoch: u64, extra: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![("ok", Json::Bool(true)), ("epoch", Json::Int(epoch as i64))];
    fields.extend(extra);
    Json::obj(fields)
}

/// Builds an `ok:false` response at `epoch` carrying the error message.
pub fn err_response(epoch: u64, error: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("epoch", Json::Int(epoch as i64)),
        ("error", Json::Str(error.into())),
    ])
}

/// The epoch stamped on a response (all well-formed responses carry one).
pub fn response_epoch(resp: &Json) -> Option<u64> {
    resp.get("epoch").and_then(Json::as_u64)
}

/// Whether a response reports success.
pub fn response_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_json() {
        let cases = vec![
            Request::Dist { u: 0, v: 5 },
            Request::Path { u: 3, v: 3 },
            Request::Reach { u: 9, v: 1 },
            Request::Mutate {
                edges: vec![(0, 5, 12), (3, 4, TROPICAL_INF)],
            },
            Request::Status,
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in cases {
            let back = Request::from_json(&req.to_json()).expect("parse");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn malformed_requests_name_the_offence() {
        let bad = [
            (Json::obj(vec![]), "missing string field 'op'"),
            (
                Json::obj(vec![("op", Json::Str("dist".into()))]),
                "needs u32 field 'u'",
            ),
            (
                Json::obj(vec![("op", Json::Str("teleport".into()))]),
                "unknown op",
            ),
            (
                Json::obj(vec![
                    ("op", Json::Str("mutate".into())),
                    ("edges", Json::Arr(vec![Json::Int(3)])),
                ]),
                "must be [u, v, w]",
            ),
        ];
        for (msg, want) in bad {
            let err = Request::from_json(&msg).expect_err("must reject");
            assert!(err.contains(want), "{err:?} should mention {want:?}");
        }
    }

    #[test]
    fn frames_roundtrip_and_eof_is_clean() {
        let mut buf = Vec::new();
        let msg = Request::Dist { u: 1, v: 2 }.to_json();
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &Request::Status.to_json()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(msg));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Request::Status.to_json()));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn torn_and_oversized_frames_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Status.to_json()).unwrap();
        buf.truncate(buf.len() - 3); // torn body
        assert!(read_frame(&mut &buf[..]).is_err());
        let huge = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        assert!(read_frame(&mut &huge[..]).is_err());
        // A torn length prefix is also an error (not silent EOF).
        assert!(read_frame(&mut &[0u8, 0][..]).is_err());
    }

    #[test]
    fn trace_envelope_validates_and_round_trips() {
        // A request with a valid trace still parses as the same request.
        let framed = with_trace(Request::Dist { u: 1, v: 2 }.to_json(), "req-42/a_b.c");
        assert_eq!(request_trace(&framed), Ok(Some("req-42/a_b.c")));
        assert_eq!(
            Request::from_json(&framed),
            Ok(Request::Dist { u: 1, v: 2 })
        );
        // Absent means server-assigned, not an error.
        assert_eq!(request_trace(&Request::Status.to_json()), Ok(None));
        // Wrong type / empty / oversized / non-printable are rejected.
        for (bad, want) in [
            (Json::Int(7), "must be a string"),
            (Json::Str(String::new()), "1..=64 bytes"),
            (Json::Str("x".repeat(MAX_TRACE_BYTES + 1)), "1..=64 bytes"),
            (Json::Str("has space".into()), "printable ASCII"),
            (Json::Str("ümlaut".into()), "printable ASCII"),
        ] {
            let mut msg = Request::Status.to_json();
            if let Json::Obj(fields) = &mut msg {
                fields.push(("trace".to_string(), bad));
            }
            let err = request_trace(&msg).expect_err("must reject");
            assert!(err.contains(want), "{err:?} should mention {want:?}");
        }
        // The echo lands on responses and reads back.
        let resp = with_trace(ok_response(1, vec![]), "abc");
        assert_eq!(response_trace(&resp), Some("abc"));
    }

    #[test]
    fn raw_read_and_split_write_match_the_composed_forms() {
        let msg = Request::Dist { u: 1, v: 2 }.to_json();
        let mut composed = Vec::new();
        write_frame(&mut composed, &msg).unwrap();
        let mut split = Vec::new();
        write_encoded(&mut split, &encode_frame(&msg).unwrap()).unwrap();
        assert_eq!(composed, split, "one wire format, two entry points");
        let (text, _t0) = read_frame_raw(&mut &composed[..]).unwrap().unwrap();
        assert_eq!(Json::parse(&text).unwrap(), msg);
        assert_eq!(read_frame_raw(&mut &[][..]).unwrap(), None, "clean EOF");
    }

    #[test]
    fn response_builders_carry_ok_and_epoch() {
        let ok = ok_response(7, vec![("dist", Json::Int(4))]);
        assert!(response_ok(&ok));
        assert_eq!(response_epoch(&ok), Some(7));
        assert_eq!(ok.get("dist").and_then(Json::as_i64), Some(4));
        let err = err_response(3, "nope");
        assert!(!response_ok(&err));
        assert_eq!(response_epoch(&err), Some(3));
        assert_eq!(err.get("error").and_then(Json::as_str), Some("nope"));
    }
}
