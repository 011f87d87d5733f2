//! Compact binary wire encoding.
//!
//! The message queue (`helios-mq`) transports opaque byte payloads and the
//! KV store (`helios-kvstore`) persists opaque byte values, exactly like
//! Kafka and RocksDB do for the real Helios. This module defines the
//! little-endian, length-prefixed encoding those payloads use. It is
//! hand-rolled over [`bytes`] rather than pulling in serde: the schema is
//! small, closed, and performance-sensitive.

use crate::error::{HeliosError, Result};
use crate::event::{EdgeUpdate, GraphUpdate, VertexUpdate};
use crate::ids::{
    EdgeType, PartitionId, QueryHopId, SamplingWorkerId, ServingWorkerId, VertexId, VertexType,
};
use crate::time::Timestamp;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Types that can be appended to a byte buffer.
pub trait Encode {
    /// Append the encoded representation of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Encode into a fresh buffer and freeze it.
    fn encode_to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        self.encode(&mut buf);
        buf.freeze()
    }
}

/// Types that can be decoded from a byte buffer.
pub trait Decode: Sized {
    /// Consume bytes from the front of `buf` and reconstruct a value.
    fn decode(buf: &mut impl Buf) -> Result<Self>;

    /// Decode from a byte slice, requiring full consumption.
    fn decode_from_slice(mut slice: &[u8]) -> Result<Self> {
        let v = Self::decode(&mut slice)?;
        if !slice.is_empty() {
            return Err(HeliosError::Codec(format!(
                "{} trailing bytes after decode",
                slice.len()
            )));
        }
        Ok(v)
    }
}

#[inline]
fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(HeliosError::Codec(format!(
            "truncated input: need {n} bytes for {what}, have {}",
            buf.remaining()
        )));
    }
    Ok(())
}

macro_rules! impl_prim {
    ($ty:ty, $put:ident, $get:ident, $n:expr) => {
        impl Encode for $ty {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode(buf: &mut impl Buf) -> Result<Self> {
                need(buf, $n, stringify!($ty))?;
                Ok(buf.$get())
            }
        }
    };
}

impl_prim!(u8, put_u8, get_u8, 1);
impl_prim!(u16, put_u16_le, get_u16_le, 2);
impl_prim!(u32, put_u32_le, get_u32_le, 4);
impl_prim!(u64, put_u64_le, get_u64_le, 8);
impl_prim!(f32, put_f32_le, get_f32_le, 4);
impl_prim!(f64, put_f64_le, get_f64_le, 8);

macro_rules! impl_newtype {
    ($ty:ty, $inner:ty) => {
        impl Encode for $ty {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                self.0.encode(buf);
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode(buf: &mut impl Buf) -> Result<Self> {
                Ok(Self(<$inner>::decode(buf)?))
            }
        }
    };
}

impl_newtype!(VertexId, u64);
impl_newtype!(VertexType, u16);
impl_newtype!(EdgeType, u16);
impl_newtype!(QueryHopId, u16);
impl_newtype!(SamplingWorkerId, u32);
impl_newtype!(ServingWorkerId, u32);
impl_newtype!(PartitionId, u32);
impl_newtype!(Timestamp, u64);

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        // Guard against adversarial/corrupt lengths: never pre-reserve more
        // than what could plausibly fit in the remaining bytes.
        let cap = len.min(buf.remaining());
        let mut v = Vec::with_capacity(cap);
        for _ in 0..len {
            v.push(T::decode(buf)?);
        }
        Ok(v)
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        buf.put_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        need(buf, len, "string body")?;
        let mut raw = vec![0u8; len];
        buf.copy_to_slice(&mut raw);
        String::from_utf8(raw).map_err(|e| HeliosError::Codec(format!("invalid utf8: {e}")))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(HeliosError::Codec(format!("invalid Option tag {t}"))),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl Encode for VertexUpdate {
    fn encode(&self, buf: &mut BytesMut) {
        self.vtype.encode(buf);
        self.id.encode(buf);
        self.ts.encode(buf);
        self.feature.encode(buf);
    }
}

impl Decode for VertexUpdate {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok(VertexUpdate {
            vtype: VertexType::decode(buf)?,
            id: VertexId::decode(buf)?,
            ts: Timestamp::decode(buf)?,
            feature: Vec::<f32>::decode(buf)?,
        })
    }
}

impl Encode for EdgeUpdate {
    fn encode(&self, buf: &mut BytesMut) {
        self.etype.encode(buf);
        self.src_type.encode(buf);
        self.src.encode(buf);
        self.dst_type.encode(buf);
        self.dst.encode(buf);
        self.ts.encode(buf);
        self.weight.encode(buf);
    }
}

impl Decode for EdgeUpdate {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok(EdgeUpdate {
            etype: EdgeType::decode(buf)?,
            src_type: VertexType::decode(buf)?,
            src: VertexId::decode(buf)?,
            dst_type: VertexType::decode(buf)?,
            dst: VertexId::decode(buf)?,
            ts: Timestamp::decode(buf)?,
            weight: f32::decode(buf)?,
        })
    }
}

const TAG_VERTEX: u8 = 0;
const TAG_EDGE: u8 = 1;

impl Encode for GraphUpdate {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            GraphUpdate::Vertex(v) => {
                buf.put_u8(TAG_VERTEX);
                v.encode(buf);
            }
            GraphUpdate::Edge(e) => {
                buf.put_u8(TAG_EDGE);
                e.encode(buf);
            }
        }
    }
}

impl Decode for GraphUpdate {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match u8::decode(buf)? {
            TAG_VERTEX => Ok(GraphUpdate::Vertex(VertexUpdate::decode(buf)?)),
            TAG_EDGE => Ok(GraphUpdate::Edge(EdgeUpdate::decode(buf)?)),
            t => Err(HeliosError::Codec(format!("invalid GraphUpdate tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_vertex() -> VertexUpdate {
        VertexUpdate {
            vtype: VertexType(3),
            id: VertexId(123456789),
            feature: vec![1.0, -2.5, 3.25],
            ts: Timestamp(42),
        }
    }

    fn sample_edge() -> EdgeUpdate {
        EdgeUpdate {
            etype: EdgeType(2),
            src_type: VertexType(0),
            src: VertexId(17),
            dst_type: VertexType(1),
            dst: VertexId(99),
            ts: Timestamp(1000),
            weight: 0.5,
        }
    }

    #[test]
    fn roundtrip_vertex_update() {
        let v = sample_vertex();
        let bytes = GraphUpdate::Vertex(v.clone()).encode_to_bytes();
        let back = GraphUpdate::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, GraphUpdate::Vertex(v));
    }

    #[test]
    fn roundtrip_edge_update() {
        let e = sample_edge();
        let bytes = GraphUpdate::Edge(e.clone()).encode_to_bytes();
        let back = GraphUpdate::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, GraphUpdate::Edge(e));
    }

    #[test]
    fn roundtrip_containers() {
        let v: Vec<u64> = vec![1, 2, 3];
        let back = Vec::<u64>::decode_from_slice(&v.encode_to_bytes()).unwrap();
        assert_eq!(back, v);

        let s = "hello Helios".to_string();
        assert_eq!(String::decode_from_slice(&s.encode_to_bytes()).unwrap(), s);

        let o: Option<u32> = Some(7);
        assert_eq!(
            Option::<u32>::decode_from_slice(&o.encode_to_bytes()).unwrap(),
            o
        );
        let none: Option<u32> = None;
        assert_eq!(
            Option::<u32>::decode_from_slice(&none.encode_to_bytes()).unwrap(),
            none
        );

        let pair: (u16, String) = (9, "x".into());
        assert_eq!(
            <(u16, String)>::decode_from_slice(&pair.encode_to_bytes()).unwrap(),
            pair
        );
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = GraphUpdate::Edge(sample_edge()).encode_to_bytes();
        for cut in 0..bytes.len() {
            let r = GraphUpdate::decode_from_slice(&bytes[..cut]);
            assert!(r.is_err(), "decoding {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = sample_vertex().encode_to_bytes().to_vec();
        raw.push(0xFF);
        // VertexUpdate alone doesn't consume the trailing byte
        assert!(VertexUpdate::decode_from_slice(&raw).is_err());
    }

    #[test]
    fn invalid_tags_rejected() {
        assert!(GraphUpdate::decode_from_slice(&[9]).is_err());
        assert!(Option::<u8>::decode_from_slice(&[7]).is_err());
    }

    #[test]
    fn corrupt_length_does_not_overallocate() {
        // A Vec length of u32::MAX with a 4-byte body must error, not OOM.
        let mut buf = BytesMut::new();
        u32::MAX.encode(&mut buf);
        0u32.encode(&mut buf);
        assert!(Vec::<u64>::decode_from_slice(&buf).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        2u32.encode(&mut buf);
        buf.put_slice(&[0xFF, 0xFE]);
        assert!(String::decode_from_slice(&buf).is_err());
    }

    /// Seeds for the randomised round-trip loops; a failure names the
    /// seed and case that reproduce it.
    const SEEDS: [u64; 4] = [1, 2, 3, 0xC0FFEE];
    const CASES: usize = 128;

    #[test]
    fn seeded_edge_roundtrip() {
        for seed in SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            for case in 0..CASES {
                // Any bit pattern but NaN, which never equals itself.
                let weight = f32::from_bits(rng.gen());
                if weight.is_nan() {
                    continue;
                }
                let e = EdgeUpdate {
                    etype: EdgeType(rng.gen_range(0..16)),
                    src_type: VertexType(rng.gen_range(0..8)),
                    src: VertexId(rng.gen()),
                    dst_type: VertexType(rng.gen_range(0..8)),
                    dst: VertexId(rng.gen()),
                    ts: Timestamp(rng.gen()),
                    weight,
                };
                let back = EdgeUpdate::decode_from_slice(&e.encode_to_bytes()).unwrap();
                assert_eq!(back, e, "seed {seed} case {case}");
            }
        }
    }

    #[test]
    fn seeded_vertex_roundtrip() {
        for seed in SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            for case in 0..CASES {
                let dim = rng.gen_range(0..64);
                let v = VertexUpdate {
                    vtype: VertexType(rng.gen_range(0..8)),
                    id: VertexId(rng.gen()),
                    feature: (0..dim).map(|_| rng.gen_range(-1e6f32..1e6)).collect(),
                    ts: Timestamp(rng.gen()),
                };
                let back = VertexUpdate::decode_from_slice(&v.encode_to_bytes()).unwrap();
                assert_eq!(back, v, "seed {seed} case {case}");
            }
        }
    }

    #[test]
    fn seeded_random_bytes_never_panic() {
        // Decoding arbitrary garbage must return Err or Ok, never panic.
        for seed in SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..CASES {
                let mut raw = vec![0u8; rng.gen_range(0..256)];
                rng.fill(&mut raw[..]);
                let _ = GraphUpdate::decode_from_slice(&raw);
                let _ = Vec::<u64>::decode_from_slice(&raw);
                let _ = String::decode_from_slice(&raw);
            }
        }
    }
}
