//! The length-prefixed binary wire protocol of the network plane.
//!
//! Every message on a Helios socket is one **frame**:
//!
//! | bytes | field        | notes                                     |
//! |-------|--------------|-------------------------------------------|
//! | 2     | magic        | `0x484E` (`"NH"` little-endian)           |
//! | 1     | version      | [`WIRE_VERSION`]                          |
//! | 1     | kind         | payload discriminant, see [`Payload`]     |
//! | 8     | request id   | caller-chosen; echoed on the reply        |
//! | 4     | payload len  | bytes after the header, ≤ [`MAX_PAYLOAD`] |
//! | n     | payload      | kind-specific, [`Encode`] encoding        |
//!
//! All integers are little-endian, matching the rest of the workspace's
//! [`Encode`] impls. Request ids pair replies with in-flight requests on
//! a pipelined connection; one-way frames carry id 0 by convention.
//!
//! The decoder is strict: bad magic, unknown version/kind, oversized or
//! truncated payloads, and trailing bytes all surface as
//! [`HeliosError::Codec`] — never a panic — so one malformed peer cannot
//! take a server down, and the error feeds the `serving.decode_errors`
//! pipeline like a corrupt mq record does.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use helios_types::{Decode, Encode, GraphUpdate, HeliosError, PartitionId, Result, VertexId};

/// Frame magic: `b"NH"` read as a little-endian u16.
pub const WIRE_MAGIC: u16 = 0x484E;
/// Current protocol version. Bumped on any incompatible frame change.
pub const WIRE_VERSION: u8 = 1;
/// Frame header length in bytes.
pub const HEADER_LEN: usize = 16;
/// Hard ceiling on payload length: a 64 MiB frame is already far beyond
/// any legitimate serve reply or relay batch, and the cap keeps a corrupt
/// length field from looking like an allocation request.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Frame-kind labels indexed by kind byte; pre-resolved metric labels come
/// from here. 0 and the retired tag 10 (a `membership` kind nothing sent)
/// are the unknown bucket.
pub const KIND_NAMES: [&str; 12] = [
    "unknown",
    "serve",
    "serve_ok",
    "updates",
    "ack",
    "produce",
    "health_req",
    "health_ok",
    "stats_req",
    "stats_ok",
    "unknown",
    "error",
];

/// Wire error codes carried by [`Payload::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Admission control shed the request (bounded in-flight budget full).
    Overloaded,
    /// The addressed entity does not exist (unknown seed owner, topic…).
    NotFound,
    /// The downstream worker is unreachable or disconnected mid-request.
    Unavailable,
    /// The peer could not decode the request.
    Codec,
    /// The peer is shutting down.
    ShuttingDown,
    /// Any other server-side failure.
    Internal,
}

impl ErrCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrCode::Overloaded => 1,
            ErrCode::NotFound => 2,
            ErrCode::Unavailable => 3,
            ErrCode::Codec => 4,
            ErrCode::ShuttingDown => 5,
            ErrCode::Internal => 6,
        }
    }

    fn from_u8(v: u8) -> Result<ErrCode> {
        Ok(match v {
            1 => ErrCode::Overloaded,
            2 => ErrCode::NotFound,
            3 => ErrCode::Unavailable,
            4 => ErrCode::Codec,
            5 => ErrCode::ShuttingDown,
            6 => ErrCode::Internal,
            t => return Err(HeliosError::Codec(format!("invalid wire error code {t}"))),
        })
    }

    /// Convert a wire error reply into the workspace error it stands for.
    pub fn to_error(self, message: &str) -> HeliosError {
        match self {
            ErrCode::Overloaded => HeliosError::Overloaded(message.into()),
            ErrCode::NotFound => HeliosError::NotFound(message.into()),
            ErrCode::Unavailable => HeliosError::Disconnected(message.into()),
            ErrCode::Codec => HeliosError::Codec(message.into()),
            ErrCode::ShuttingDown => HeliosError::ShuttingDown,
            ErrCode::Internal => HeliosError::Disconnected(message.into()),
        }
    }

    /// Classify a server-side failure into the code its reply carries.
    pub fn from_error(e: &HeliosError) -> ErrCode {
        match e {
            HeliosError::Overloaded(_) => ErrCode::Overloaded,
            HeliosError::NotFound(_) => ErrCode::NotFound,
            HeliosError::Codec(_) => ErrCode::Codec,
            HeliosError::ShuttingDown => ErrCode::ShuttingDown,
            HeliosError::Disconnected(_) | HeliosError::Io(_) => ErrCode::Unavailable,
            _ => ErrCode::Internal,
        }
    }
}

/// One relayed sample-queue record: the sampling host ships the raw topic
/// payload with its partition and key so the receiving serving worker's
/// local topic reproduces the exact per-partition sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayRecord {
    /// Destination partition in the receiver's `samples-<sew>` topic.
    pub partition: PartitionId,
    /// Producer routing key (the sample message's routing vertex).
    pub key: u64,
    /// The encoded [`helios_core::SampleMsg`] bytes, shipped opaquely.
    pub payload: Bytes,
}

impl Encode for RelayRecord {
    fn encode(&self, buf: &mut BytesMut) {
        self.partition.encode(buf);
        self.key.encode(buf);
        (self.payload.len() as u32).encode(buf);
        buf.put_slice(&self.payload);
    }
}

impl Decode for RelayRecord {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        let partition = PartitionId::decode(buf)?;
        let key = u64::decode(buf)?;
        let len = u32::decode(buf)? as usize;
        if len > buf.remaining() {
            return Err(HeliosError::Codec(format!(
                "truncated relay payload: need {len} bytes, have {}",
                buf.remaining()
            )));
        }
        Ok(RelayRecord {
            partition,
            key,
            payload: buf.copy_to_bytes(len),
        })
    }
}

/// The body of one wire frame. Request/reply pairing is by request id;
/// the kind byte in the header is this enum's discriminant.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Serve a K-hop sampling query for `seed`.
    Serve { seed: VertexId },
    /// Successful serve reply: the canonical encoded subgraph bytes,
    /// exactly what `serve_encoded` writes — shipped opaquely so the
    /// server can assemble the frame straight from its arena buffer.
    ServeOk { bytes: Bytes },
    /// A batch of graph updates for ingestion.
    Updates { updates: Vec<GraphUpdate> },
    /// Generic acknowledgement with an operation count.
    Ack { count: u64 },
    /// Sample-queue relay batch for serving worker `sew`.
    Produce { sew: u32, records: Vec<RelayRecord> },
    /// Health probe request.
    HealthReq,
    /// Health probe reply.
    HealthOk { healthy: bool, detail: String },
    /// Stats snapshot request.
    StatsReq,
    /// Stats snapshot reply: flat name→value pairs (drain watermarks,
    /// shed counts, …); the schema is the names, kept self-describing.
    StatsOk { entries: Vec<(String, u64)> },
    /// Error reply (kind 11; tag 10 is retired and fails to decode).
    Error { code: ErrCode, message: String },
}

impl Payload {
    /// The frame kind byte for this payload.
    pub fn kind(&self) -> u8 {
        match self {
            Payload::Serve { .. } => 1,
            Payload::ServeOk { .. } => 2,
            Payload::Updates { .. } => 3,
            Payload::Ack { .. } => 4,
            Payload::Produce { .. } => 5,
            Payload::HealthReq => 6,
            Payload::HealthOk { .. } => 7,
            Payload::StatsReq => 8,
            Payload::StatsOk { .. } => 9,
            Payload::Error { .. } => 11,
        }
    }

    /// Human-readable kind label (telemetry's `kind` metric label).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Payload::Serve { .. } => "serve",
            Payload::ServeOk { .. } => "serve_ok",
            Payload::Updates { .. } => "updates",
            Payload::Ack { .. } => "ack",
            Payload::Produce { .. } => "produce",
            Payload::HealthReq => "health_req",
            Payload::HealthOk { .. } => "health_ok",
            Payload::StatsReq => "stats_req",
            Payload::StatsOk { .. } => "stats_ok",
            Payload::Error { .. } => "error",
        }
    }

    fn encode_body(&self, buf: &mut BytesMut) {
        match self {
            Payload::Serve { seed } => seed.encode(buf),
            Payload::ServeOk { bytes } => buf.put_slice(bytes),
            Payload::Updates { updates } => updates.encode(buf),
            Payload::Ack { count } => count.encode(buf),
            Payload::Produce { sew, records } => {
                sew.encode(buf);
                records.encode(buf);
            }
            Payload::HealthReq | Payload::StatsReq => {}
            Payload::HealthOk { healthy, detail } => {
                u8::from(*healthy).encode(buf);
                detail.encode(buf);
            }
            Payload::StatsOk { entries } => entries.encode(buf),
            Payload::Error { code, message } => {
                code.to_u8().encode(buf);
                message.encode(buf);
            }
        }
    }

    pub(crate) fn decode_body(kind: u8, body: &[u8]) -> Result<Payload> {
        let mut buf = body;
        let payload = match kind {
            1 => Payload::Serve {
                seed: VertexId::decode(&mut buf)?,
            },
            2 => {
                let bytes = Bytes::copy_from_slice(buf);
                buf = &[];
                Payload::ServeOk { bytes }
            }
            3 => Payload::Updates {
                updates: Vec::<GraphUpdate>::decode(&mut buf)?,
            },
            4 => Payload::Ack {
                count: u64::decode(&mut buf)?,
            },
            5 => Payload::Produce {
                sew: u32::decode(&mut buf)?,
                records: Vec::<RelayRecord>::decode(&mut buf)?,
            },
            6 => Payload::HealthReq,
            7 => Payload::HealthOk {
                healthy: u8::decode(&mut buf)? != 0,
                detail: String::decode(&mut buf)?,
            },
            8 => Payload::StatsReq,
            9 => Payload::StatsOk {
                entries: Vec::<(String, u64)>::decode(&mut buf)?,
            },
            11 => Payload::Error {
                code: ErrCode::from_u8(u8::decode(&mut buf)?)?,
                message: String::decode(&mut buf)?,
            },
            t => return Err(HeliosError::Codec(format!("invalid frame kind {t}"))),
        };
        if !buf.is_empty() {
            return Err(HeliosError::Codec(format!(
                "{} trailing bytes after frame payload",
                buf.len()
            )));
        }
        Ok(payload)
    }
}

/// One wire frame: a request id plus its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Caller-chosen id echoed on the reply; 0 for one-way frames.
    pub request_id: u64,
    /// The frame body.
    pub payload: Payload,
}

impl Frame {
    /// Append the whole frame (header + payload) to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        let header_at = buf.len();
        encode_header(buf, self.payload.kind(), self.request_id, 0);
        let body_at = buf.len();
        self.payload.encode_body(buf);
        let len = (buf.len() - body_at) as u32;
        buf[header_at + 12..header_at + 16].copy_from_slice(&len.to_le_bytes());
    }

    /// Encode into a fresh buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + 64);
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decode one frame from a slice that must contain exactly one frame.
    pub fn decode(bytes: &[u8]) -> Result<Frame> {
        let header = decode_header(bytes)?;
        let total = HEADER_LEN + header.payload_len;
        if bytes.len() < total {
            return Err(HeliosError::Codec(format!(
                "truncated frame: header promises {} payload bytes, have {}",
                header.payload_len,
                bytes.len() - HEADER_LEN
            )));
        }
        if bytes.len() > total {
            return Err(HeliosError::Codec(format!(
                "{} trailing bytes after frame",
                bytes.len() - total
            )));
        }
        let payload = Payload::decode_body(header.kind, &bytes[HEADER_LEN..total])?;
        Ok(Frame {
            request_id: header.request_id,
            payload,
        })
    }
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Frame kind byte (validated against [`Payload`] on body decode).
    pub kind: u8,
    /// Request id.
    pub request_id: u64,
    /// Payload length in bytes (already checked against [`MAX_PAYLOAD`]).
    pub payload_len: usize,
}

/// Append a frame header. `payload_len` may be patched afterwards (the
/// length field sits at byte offset 12) when the body is encoded in
/// place after the header.
pub fn encode_header(buf: &mut BytesMut, kind: u8, request_id: u64, payload_len: u32) {
    buf.put_u16_le(WIRE_MAGIC);
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(kind);
    buf.put_u64_le(request_id);
    buf.put_u32_le(payload_len);
}

/// Write a standalone header into a fixed array (socket write paths that
/// assemble `[header][payload]` with vectored writes).
pub fn header_bytes(kind: u8, request_id: u64, payload_len: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..2].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    h[2] = WIRE_VERSION;
    h[3] = kind;
    h[4..12].copy_from_slice(&request_id.to_le_bytes());
    h[12..16].copy_from_slice(&payload_len.to_le_bytes());
    h
}

/// Validate and decode a frame header from the first [`HEADER_LEN`] bytes.
pub fn decode_header(bytes: &[u8]) -> Result<Header> {
    if bytes.len() < HEADER_LEN {
        return Err(HeliosError::Codec(format!(
            "truncated frame header: need {HEADER_LEN} bytes, have {}",
            bytes.len()
        )));
    }
    let magic = u16::from_le_bytes([bytes[0], bytes[1]]);
    if magic != WIRE_MAGIC {
        return Err(HeliosError::Codec(format!(
            "bad frame magic {magic:#06x} (expected {WIRE_MAGIC:#06x})"
        )));
    }
    let version = bytes[2];
    if version != WIRE_VERSION {
        return Err(HeliosError::Codec(format!(
            "unsupported wire version {version} (speaking {WIRE_VERSION})"
        )));
    }
    let kind = bytes[3];
    let request_id = u64::from_le_bytes(bytes[4..12].try_into().expect("8 header bytes"));
    let payload_len =
        u32::from_le_bytes(bytes[12..16].try_into().expect("4 header bytes")) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(HeliosError::Codec(format!(
            "frame payload of {payload_len} bytes exceeds the {MAX_PAYLOAD} limit"
        )));
    }
    Ok(Header {
        kind,
        request_id,
        payload_len,
    })
}

/// Read `buf.len()` bytes, or report a clean EOF (`Ok(false)`) when the
/// peer closed before the first byte. EOF mid-buffer is an error.
fn fill_or_eof(r: &mut impl std::io::Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut off = 0;
    while off < buf.len() {
        let n = r.read(&mut buf[off..])?;
        if n == 0 {
            if off == 0 {
                return Ok(false);
            }
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        off += n;
    }
    Ok(true)
}

/// Read one frame from a blocking stream. Returns `Ok(None)` on clean
/// EOF (peer closed between frames), the frame plus its total wire size
/// otherwise. Malformed data is [`HeliosError::Codec`]; socket failures
/// are [`HeliosError::Io`].
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Option<(Frame, usize)>> {
    let mut hdr = [0u8; HEADER_LEN];
    if !fill_or_eof(r, &mut hdr)? {
        return Ok(None);
    }
    let header = decode_header(&hdr)?;
    let mut body = vec![0u8; header.payload_len];
    r.read_exact(&mut body)?;
    let payload = Payload::decode_body(header.kind, &body)?;
    Ok(Some((
        Frame {
            request_id: header.request_id,
            payload,
        },
        HEADER_LEN + header.payload_len,
    )))
}

/// Write one frame. `scratch` is a reusable encode buffer (cleared on
/// entry) so steady-state writes allocate nothing. Returns the wire size.
pub fn write_frame(
    w: &mut impl std::io::Write,
    request_id: u64,
    payload: &Payload,
    scratch: &mut BytesMut,
) -> Result<usize> {
    scratch.clear();
    encode_header(scratch, payload.kind(), request_id, 0);
    payload.encode_body(scratch);
    let len = (scratch.len() - HEADER_LEN) as u32;
    scratch[12..16].copy_from_slice(&len.to_le_bytes());
    w.write_all(scratch)?;
    Ok(scratch.len())
}

/// Write a reply frame whose body is already-encoded bytes, straight
/// from the caller's buffer — the zero-copy path for serve replies.
pub fn write_raw_frame(
    w: &mut impl std::io::Write,
    kind: u8,
    request_id: u64,
    body: &[u8],
) -> Result<usize> {
    let hdr = header_bytes(kind, request_id, body.len() as u32);
    w.write_all(&hdr)?;
    w.write_all(body)?;
    Ok(HEADER_LEN + body.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_types::{EdgeType, EdgeUpdate, Timestamp, VertexType, VertexUpdate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(frame: &Frame) {
        let bytes = frame.to_bytes();
        let back = Frame::decode(&bytes).expect("decode");
        assert_eq!(*frame, back);
    }

    fn sample_updates(n: u64) -> Vec<GraphUpdate> {
        (0..n)
            .flat_map(|i| {
                [
                    GraphUpdate::Vertex(VertexUpdate {
                        vtype: VertexType(0),
                        id: VertexId(i),
                        feature: vec![i as f32, 0.5],
                        ts: Timestamp(i),
                    }),
                    GraphUpdate::Edge(EdgeUpdate {
                        etype: EdgeType(1),
                        src_type: VertexType(0),
                        src: VertexId(i),
                        dst_type: VertexType(1),
                        dst: VertexId(1000 + i),
                        ts: Timestamp(100 + i),
                        weight: 2.5,
                    }),
                ]
            })
            .collect()
    }

    /// One frame of every kind, exercised by the identity and fuzz tests.
    fn all_kinds() -> Vec<Frame> {
        vec![
            Frame {
                request_id: 1,
                payload: Payload::Serve { seed: VertexId(42) },
            },
            Frame {
                request_id: 2,
                payload: Payload::ServeOk {
                    bytes: Bytes::from(vec![1u8, 2, 3, 4, 5]),
                },
            },
            Frame {
                request_id: 3,
                payload: Payload::Updates {
                    updates: sample_updates(3),
                },
            },
            Frame {
                request_id: 4,
                payload: Payload::Ack { count: 77 },
            },
            Frame {
                request_id: 5,
                payload: Payload::Produce {
                    sew: 1,
                    records: vec![
                        RelayRecord {
                            partition: PartitionId(0),
                            key: 9,
                            payload: Bytes::from(vec![0xAA; 20]),
                        },
                        RelayRecord {
                            partition: PartitionId(3),
                            key: 11,
                            payload: Bytes::new(),
                        },
                    ],
                },
            },
            Frame {
                request_id: 6,
                payload: Payload::HealthReq,
            },
            Frame {
                request_id: 7,
                payload: Payload::HealthOk {
                    healthy: false,
                    detail: "lag 12000".into(),
                },
            },
            Frame {
                request_id: 8,
                payload: Payload::StatsReq,
            },
            Frame {
                request_id: 9,
                payload: Payload::StatsOk {
                    entries: vec![("serving.applied".into(), 10), ("backlog".into(), 0)],
                },
            },
            Frame {
                request_id: 10,
                payload: Payload::Error {
                    code: ErrCode::Overloaded,
                    message: "budget 64 full".into(),
                },
            },
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in all_kinds() {
            roundtrip(&frame);
        }
    }

    #[test]
    fn header_rejects_bad_magic_version_and_length() {
        let good = Frame {
            request_id: 5,
            payload: Payload::HealthReq,
        }
        .to_bytes()
        .to_vec();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bad_magic),
            Err(HeliosError::Codec(_))
        ));

        let mut bad_version = good.clone();
        bad_version[2] = 99;
        assert!(matches!(
            Frame::decode(&bad_version),
            Err(HeliosError::Codec(_))
        ));

        let mut bad_len = good.clone();
        bad_len[12..16].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            Frame::decode(&bad_len),
            Err(HeliosError::Codec(_))
        ));

        let mut bad_kind = good;
        bad_kind[3] = 250;
        assert!(matches!(
            Frame::decode(&bad_kind),
            Err(HeliosError::Codec(_))
        ));
    }

    #[test]
    fn retired_membership_tag_is_an_invalid_kind() {
        // Tag 10 carried a `Membership` frame nothing sent or handled; it
        // is gone, and `Error` keeps its tag 11.
        let mut bytes = Frame {
            request_id: 1,
            payload: Payload::HealthReq,
        }
        .to_bytes()
        .to_vec();
        bytes[3] = 10;
        match Frame::decode(&bytes) {
            Err(HeliosError::Codec(msg)) => assert_eq!(msg, "invalid frame kind 10"),
            other => panic!("tag 10 must not decode, got {other:?}"),
        }
        let error = Payload::Error {
            code: ErrCode::Internal,
            message: String::new(),
        };
        assert_eq!(error.kind(), 11);
        assert_eq!(KIND_NAMES[10], "unknown");
    }

    #[test]
    fn truncation_at_every_boundary_is_a_clean_codec_error() {
        for frame in all_kinds() {
            let bytes = frame.to_bytes();
            for cut in 0..bytes.len() {
                match Frame::decode(&bytes[..cut]) {
                    Err(HeliosError::Codec(_)) => {}
                    other => panic!(
                        "cut at {cut}/{} of kind {} must be a codec error, got {other:?}",
                        bytes.len(),
                        frame.payload.kind_name()
                    ),
                }
            }
        }
    }

    #[test]
    fn error_codes_round_trip_and_map_to_errors() {
        for code in [
            ErrCode::Overloaded,
            ErrCode::NotFound,
            ErrCode::Unavailable,
            ErrCode::Codec,
            ErrCode::ShuttingDown,
            ErrCode::Internal,
        ] {
            assert_eq!(ErrCode::from_u8(code.to_u8()).unwrap(), code);
            let err = code.to_error("x");
            assert_eq!(ErrCode::from_error(&err), code_after_roundtrip(code));
        }
        assert!(ErrCode::from_u8(0).is_err());
        assert!(ErrCode::from_u8(7).is_err());
    }

    /// `Internal` deliberately maps onto `Disconnected`, which classifies
    /// back as `Unavailable`; every other code survives the round trip.
    fn code_after_roundtrip(code: ErrCode) -> ErrCode {
        match code {
            ErrCode::Internal => ErrCode::Unavailable,
            c => c,
        }
    }

    /// Seeds for the randomised loops; a failure names the seed and case.
    const SEEDS: [u64; 4] = [1, 2, 3, 0xC0FFEE];

    fn assert_decodes_or_codec_error(bytes: &[u8], at: &str) {
        match Frame::decode(bytes) {
            Ok(_) | Err(HeliosError::Codec(_)) => {}
            Err(other) => panic!("{at}: unexpected error class: {other}"),
        }
    }

    #[test]
    fn corrupt_single_byte_never_panics() {
        // Either the frame still decodes (the flip hit a don't-care bit
        // pattern that yields another valid frame) or it fails with a
        // codec error; it must never panic. Every byte of every kind is
        // hit, with a seeded non-zero flip.
        for seed in SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            for frame in all_kinds() {
                let good = frame.to_bytes().to_vec();
                for i in 0..good.len() {
                    let flip: u8 = rng.gen_range(1..=255);
                    let mut bytes = good.clone();
                    bytes[i] ^= flip;
                    let kind = frame.payload.kind_name();
                    assert_decodes_or_codec_error(
                        &bytes,
                        &format!("seed {seed} kind {kind} byte {i} ^ {flip:#x}"),
                    );
                }
            }
        }
    }

    #[test]
    fn random_bytes_never_panic() {
        // Garbage with no valid magic, and garbage behind a valid header.
        let header = Frame {
            request_id: 0,
            payload: Payload::HealthReq,
        }
        .to_bytes();
        for seed in SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            for case in 0..256 {
                let mut bytes = vec![0u8; rng.gen_range(0..96)];
                rng.fill(&mut bytes[..]);
                let at = format!("seed {seed} case {case}");
                assert_decodes_or_codec_error(&bytes, &at);
                let keep = bytes.len().min(3);
                bytes[..keep].copy_from_slice(&header[..keep]);
                assert_decodes_or_codec_error(&bytes, &at);
            }
        }
    }

    #[test]
    fn serve_and_ack_round_trip_any_values() {
        for seed in SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..128 {
                let request_id = rng.gen();
                roundtrip(&Frame {
                    request_id,
                    payload: Payload::Serve {
                        seed: VertexId(rng.gen()),
                    },
                });
                roundtrip(&Frame {
                    request_id,
                    payload: Payload::Ack { count: rng.gen() },
                });
            }
        }
        for edge in [0, u64::MAX] {
            roundtrip(&Frame {
                request_id: edge,
                payload: Payload::Ack { count: edge },
            });
        }
    }
}
