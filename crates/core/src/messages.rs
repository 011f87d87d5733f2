//! Messages between Helios workers.
//!
//! Three message families:
//!
//! * [`UpdateEnvelope`] — a graph update stamped with its enqueue time, on
//!   the `updates` topic (the stamp is how ingestion latency, Fig. 17, is
//!   measured end-to-end);
//! * [`ControlMsg`] — subscription management between sampling shards
//!   (§5.3, Fig. 7), sent typed to the owning shard's mailbox: every
//!   sampling worker runs in one process, so it is never encoded;
//! * [`SampleMsg`] — pre-sampled results and feature updates pushed to a
//!   serving worker's `samples-<sew>` topic.

use bytes::{Buf, BufMut, BytesMut};
use helios_telemetry::TraceCtx;
use helios_types::{
    Decode, Encode, GraphUpdate, HeliosError, QueryHopId, Result, ServingWorkerId, Timestamp,
    VertexId,
};

/// Wall-clock nanoseconds since the UNIX epoch; used only for measuring
/// real elapsed ingestion latency, never for ordering decisions.
pub fn now_nanos() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// A graph update plus the wall-clock time it entered the queue.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateEnvelope {
    /// Enqueue time from [`now_nanos`].
    pub enqueued_at: u64,
    /// Trace context of the ingesting request; [`TraceCtx::NONE`] unless
    /// tracing is enabled at ingest time.
    pub trace: TraceCtx,
    /// The update itself.
    pub update: GraphUpdate,
}

impl UpdateEnvelope {
    /// Wrap an update, stamping it now. Starts a new trace when tracing
    /// is enabled (each ingested update is its own root).
    pub fn stamp(update: GraphUpdate) -> Self {
        UpdateEnvelope {
            enqueued_at: now_nanos(),
            trace: TraceCtx::root(),
            update,
        }
    }
}

impl Encode for UpdateEnvelope {
    fn encode(&self, buf: &mut BytesMut) {
        self.enqueued_at.encode(buf);
        self.trace.encode(buf);
        self.update.encode(buf);
    }
}

impl Decode for UpdateEnvelope {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok(UpdateEnvelope {
            enqueued_at: u64::decode(buf)?,
            trace: TraceCtx::decode(buf)?,
            update: GraphUpdate::decode(buf)?,
        })
    }
}

/// One sampled neighbor as shipped to serving workers (the reservoir's
/// A-Res key is internal and not shipped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleEntryLite {
    /// Sampled neighbor.
    pub neighbor: VertexId,
    /// Edge timestamp that produced the sample.
    pub ts: Timestamp,
    /// Edge weight.
    pub weight: f32,
}

impl Encode for SampleEntryLite {
    fn encode(&self, buf: &mut BytesMut) {
        self.neighbor.encode(buf);
        self.ts.encode(buf);
        self.weight.encode(buf);
    }
}

impl Decode for SampleEntryLite {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok(SampleEntryLite {
            neighbor: VertexId::decode(buf)?,
            ts: Timestamp::decode(buf)?,
            weight: f32::decode(buf)?,
        })
    }
}

impl SampleEntryLite {
    /// Encoded size of one entry: neighbor (8) + ts (8) + weight (4).
    pub const WIRE_BYTES: usize = 20;

    /// Decode only the neighbor ids out of an encoded
    /// `Vec<SampleEntryLite>`, skipping timestamps and weights. The serve
    /// hot path expands hops with this: it never materializes the
    /// intermediate `Vec<SampleEntryLite>`.
    pub fn decode_neighbors(raw: &[u8]) -> Result<Vec<VertexId>> {
        let mut buf = raw;
        let n = u32::decode(&mut buf)? as usize;
        if buf.remaining() < n * Self::WIRE_BYTES {
            return Err(HeliosError::Codec(format!(
                "sample list truncated: {n} entries, {} bytes left",
                buf.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(VertexId::decode(&mut buf)?);
            buf.advance(Self::WIRE_BYTES - 8);
        }
        Ok(out)
    }

    /// Non-allocating variant of [`SampleEntryLite::decode_neighbors`]:
    /// validate the length header once, then yield neighbor ids straight
    /// off the raw bytes. The zero-copy serve path streams these into its
    /// response arena without ever building a `Vec<VertexId>` per parent.
    pub fn neighbors_iter(raw: &[u8]) -> Result<impl Iterator<Item = VertexId> + '_> {
        let mut buf = raw;
        let n = u32::decode(&mut buf)? as usize;
        if buf.remaining() < n * Self::WIRE_BYTES {
            return Err(HeliosError::Codec(format!(
                "sample list truncated: {n} entries, {} bytes left",
                buf.remaining()
            )));
        }
        let body = &raw[raw.len() - buf.remaining()..];
        Ok(body
            .chunks_exact(Self::WIRE_BYTES)
            .take(n)
            .map(|c| VertexId(u64::from_le_bytes(c[..8].try_into().unwrap()))))
    }
}

/// Subscription-management messages between sampling shards (§5.3).
///
/// Sent to the mailbox of the shard that owns the *target* vertex, so the
/// vertex's owner processes them in order.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// `sew` now needs the one-hop samples of `vertex` under `hop`
    /// (refcounted). The owner responds by pushing a snapshot and all
    /// future changes, and transitively subscribes downstream hops.
    SubscribeSamples {
        /// One-hop query.
        hop: QueryHopId,
        /// Key vertex.
        vertex: VertexId,
        /// Subscribing serving worker.
        sew: ServingWorkerId,
    },
    /// Refcounted inverse of `SubscribeSamples`; at zero the owner tells
    /// `sew` to evict and transitively unsubscribes downstream.
    UnsubscribeSamples {
        /// One-hop query.
        hop: QueryHopId,
        /// Key vertex.
        vertex: VertexId,
        /// Unsubscribing serving worker.
        sew: ServingWorkerId,
    },
    /// `sew` needs the latest feature of `vertex` (refcounted).
    SubscribeFeature {
        /// Vertex whose feature is needed.
        vertex: VertexId,
        /// Subscribing serving worker.
        sew: ServingWorkerId,
    },
    /// Refcounted inverse of `SubscribeFeature`.
    UnsubscribeFeature {
        /// Vertex whose feature is no longer needed.
        vertex: VertexId,
        /// Unsubscribing serving worker.
        sew: ServingWorkerId,
    },
}

impl ControlMsg {
    /// The vertex whose owner must process this message (routing key).
    pub fn target_vertex(&self) -> VertexId {
        match self {
            ControlMsg::SubscribeSamples { vertex, .. }
            | ControlMsg::UnsubscribeSamples { vertex, .. }
            | ControlMsg::SubscribeFeature { vertex, .. }
            | ControlMsg::UnsubscribeFeature { vertex, .. } => *vertex,
        }
    }
}

/// Messages on a serving worker's sample queue.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleMsg {
    /// The current reservoir contents for `(hop, key)` — a full snapshot,
    /// which makes application idempotent and ordering-tolerant.
    SampleUpdate {
        /// One-hop query.
        hop: QueryHopId,
        /// Key vertex.
        key: VertexId,
        /// Current samples.
        entries: Vec<SampleEntryLite>,
        /// Enqueue stamp of the update that caused this push (for
        /// ingestion-latency measurement); 0 for snapshot pushes.
        caused_at: u64,
        /// Trace context of the causing update ([`TraceCtx::NONE`] for
        /// snapshot pushes or when tracing is off).
        trace: TraceCtx,
    },
    /// `(hop, key)` is no longer subscribed: remove it from the cache.
    Evict {
        /// One-hop query.
        hop: QueryHopId,
        /// Key vertex.
        key: VertexId,
    },
    /// Latest feature of `vertex`.
    FeatureUpdate {
        /// Vertex.
        vertex: VertexId,
        /// Feature vector.
        feature: Vec<f32>,
        /// Feature timestamp.
        ts: Timestamp,
        /// Enqueue stamp of the causing update; 0 for snapshot pushes.
        caused_at: u64,
        /// Trace context of the causing update ([`TraceCtx::NONE`] for
        /// snapshot pushes or when tracing is off).
        trace: TraceCtx,
    },
    /// `vertex`'s feature is no longer subscribed: drop it.
    EvictFeature {
        /// Vertex.
        vertex: VertexId,
    },
}

impl SampleMsg {
    /// Routing key: all messages about the same cache key travel on the
    /// same partition, preserving per-key order.
    pub fn routing_key(&self) -> u64 {
        match self {
            SampleMsg::SampleUpdate { key, .. } | SampleMsg::Evict { key, .. } => key.raw(),
            SampleMsg::FeatureUpdate { vertex, .. } | SampleMsg::EvictFeature { vertex } => {
                vertex.raw()
            }
        }
    }

    /// Trace context carried by this message ([`TraceCtx::NONE`] for
    /// evictions, which are not individually traced).
    pub fn trace(&self) -> TraceCtx {
        match self {
            SampleMsg::SampleUpdate { trace, .. } | SampleMsg::FeatureUpdate { trace, .. } => {
                *trace
            }
            SampleMsg::Evict { .. } | SampleMsg::EvictFeature { .. } => TraceCtx::NONE,
        }
    }
}

const SMP_UPDATE: u8 = 0;
const SMP_EVICT: u8 = 1;
const SMP_FEAT: u8 = 2;
const SMP_EVICT_F: u8 = 3;

impl Encode for SampleMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            SampleMsg::SampleUpdate {
                hop,
                key,
                entries,
                caused_at,
                trace,
            } => {
                buf.put_u8(SMP_UPDATE);
                hop.encode(buf);
                key.encode(buf);
                entries.encode(buf);
                caused_at.encode(buf);
                trace.encode(buf);
            }
            SampleMsg::Evict { hop, key } => {
                buf.put_u8(SMP_EVICT);
                hop.encode(buf);
                key.encode(buf);
            }
            SampleMsg::FeatureUpdate {
                vertex,
                feature,
                ts,
                caused_at,
                trace,
            } => {
                buf.put_u8(SMP_FEAT);
                vertex.encode(buf);
                feature.encode(buf);
                ts.encode(buf);
                caused_at.encode(buf);
                trace.encode(buf);
            }
            SampleMsg::EvictFeature { vertex } => {
                buf.put_u8(SMP_EVICT_F);
                vertex.encode(buf);
            }
        }
    }
}

impl Decode for SampleMsg {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match u8::decode(buf)? {
            SMP_UPDATE => Ok(SampleMsg::SampleUpdate {
                hop: QueryHopId::decode(buf)?,
                key: VertexId::decode(buf)?,
                entries: Vec::<SampleEntryLite>::decode(buf)?,
                caused_at: u64::decode(buf)?,
                trace: TraceCtx::decode(buf)?,
            }),
            SMP_EVICT => Ok(SampleMsg::Evict {
                hop: QueryHopId::decode(buf)?,
                key: VertexId::decode(buf)?,
            }),
            SMP_FEAT => Ok(SampleMsg::FeatureUpdate {
                vertex: VertexId::decode(buf)?,
                feature: Vec::<f32>::decode(buf)?,
                ts: Timestamp::decode(buf)?,
                caused_at: u64::decode(buf)?,
                trace: TraceCtx::decode(buf)?,
            }),
            SMP_EVICT_F => Ok(SampleMsg::EvictFeature {
                vertex: VertexId::decode(buf)?,
            }),
            t => Err(HeliosError::Codec(format!("bad SampleMsg tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_types::{EdgeType, EdgeUpdate, VertexType};

    #[test]
    fn envelope_roundtrip_and_stamp() {
        let e = UpdateEnvelope::stamp(GraphUpdate::Edge(EdgeUpdate {
            etype: EdgeType(1),
            src_type: VertexType(0),
            src: VertexId(1),
            dst_type: VertexType(1),
            dst: VertexId(2),
            ts: Timestamp(3),
            weight: 1.0,
        }));
        assert!(e.enqueued_at > 0);
        let back = UpdateEnvelope::decode_from_slice(&e.encode_to_bytes()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn sample_msgs_roundtrip() {
        let msgs = [
            SampleMsg::SampleUpdate {
                hop: QueryHopId(0),
                key: VertexId(1),
                entries: vec![
                    SampleEntryLite {
                        neighbor: VertexId(2),
                        ts: Timestamp(3),
                        weight: 0.5,
                    },
                    SampleEntryLite {
                        neighbor: VertexId(4),
                        ts: Timestamp(5),
                        weight: 1.5,
                    },
                ],
                caused_at: 42,
                trace: TraceCtx {
                    trace: 77,
                    parent: 5,
                },
            },
            SampleMsg::Evict {
                hop: QueryHopId(1),
                key: VertexId(9),
            },
            SampleMsg::FeatureUpdate {
                vertex: VertexId(3),
                feature: vec![1.0, -1.0],
                ts: Timestamp(7),
                caused_at: 0,
                trace: TraceCtx::NONE,
            },
            SampleMsg::EvictFeature {
                vertex: VertexId(4),
            },
        ];
        for m in &msgs {
            let back = SampleMsg::decode_from_slice(&m.encode_to_bytes()).unwrap();
            assert_eq!(&back, m);
        }
    }

    #[test]
    fn routing_key_groups_by_cache_key() {
        let a = SampleMsg::SampleUpdate {
            hop: QueryHopId(0),
            key: VertexId(10),
            entries: vec![],
            caused_at: 0,
            trace: TraceCtx::NONE,
        };
        let b = SampleMsg::Evict {
            hop: QueryHopId(1),
            key: VertexId(10),
        };
        assert_eq!(a.routing_key(), b.routing_key());
        let f = SampleMsg::EvictFeature {
            vertex: VertexId(11),
        };
        assert_eq!(f.routing_key(), 11);
    }

    #[test]
    fn decode_neighbors_matches_full_decode() {
        let entries: Vec<SampleEntryLite> = (0..17u64)
            .map(|i| SampleEntryLite {
                neighbor: VertexId(i * 3),
                ts: Timestamp(i),
                weight: i as f32 * 0.5,
            })
            .collect();
        let raw = entries.encode_to_bytes();
        let fast = SampleEntryLite::decode_neighbors(&raw).unwrap();
        let full: Vec<VertexId> = Vec::<SampleEntryLite>::decode_from_slice(&raw)
            .unwrap()
            .into_iter()
            .map(|e| e.neighbor)
            .collect();
        assert_eq!(fast, full);
        // Empty list.
        let empty = Vec::<SampleEntryLite>::new().encode_to_bytes();
        assert!(SampleEntryLite::decode_neighbors(&empty)
            .unwrap()
            .is_empty());
        // Truncated payload is rejected, not mis-read.
        assert!(SampleEntryLite::decode_neighbors(&raw[..raw.len() - 1]).is_err());
        // The non-allocating iterator agrees with both.
        let streamed: Vec<VertexId> = SampleEntryLite::neighbors_iter(&raw).unwrap().collect();
        assert_eq!(streamed, full);
        assert_eq!(SampleEntryLite::neighbors_iter(&empty).unwrap().count(), 0);
        assert!(SampleEntryLite::neighbors_iter(&raw[..raw.len() - 1]).is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(SampleMsg::decode_from_slice(&[99]).is_err());
        assert!(UpdateEnvelope::decode_from_slice(&[]).is_err());
    }

    #[test]
    fn now_nanos_monotone_enough() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
        assert!(a > 1_600_000_000u64 * 1_000_000_000, "clock sanity");
    }
}
