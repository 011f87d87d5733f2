//! Offline stand-in for the `bytes` crate.
//!
//! The container has no registry, so the benchmark package patches
//! `bytes` to this std-only implementation of the API subset the Helios
//! workspace uses: a cheaply cloneable [`Bytes`], a growable [`BytesMut`],
//! and the [`Buf`]/[`BufMut`] cursor traits with the little/big-endian
//! accessors. Semantics follow the published crate; the representation is
//! simpler (`Arc<Vec<u8>>` plus a range, `Vec<u8>` plus a read offset).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Data {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// An immutable, reference-counted byte slice; `clone` and `slice` are O(1).
#[derive(Clone)]
pub struct Bytes {
    data: Data,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty `Bytes`.
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// Wrap a static slice without allocating.
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            data: Data::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Copy `data` into a fresh allocation.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        match &self.data {
            Data::Static(s) => &s[self.start..self.end],
            Data::Shared(v) => &v[self.start..self.end],
        }
    }

    /// A sub-view sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "range {begin}..{end} out of bounds of Bytes of length {len}"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// The `Bytes` view of `subset`, which must lie inside `self`.
    pub fn slice_ref(&self, subset: &[u8]) -> Bytes {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_slice().as_ptr() as usize;
        let sub = subset.as_ptr() as usize;
        assert!(
            sub >= base && sub + subset.len() <= base + self.len(),
            "subset is not contained in this Bytes"
        );
        let begin = sub - base;
        self.slice(begin..begin + subset.len())
    }

    /// Split off and return `[0, at)`; `self` keeps `[at, len)`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Split off and return `[at, len)`; `self` keeps `[0, at)`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off out of bounds");
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    pub fn clear(&mut self) {
        self.end = self.start;
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Bytes {
        let end = vec.len();
        Bytes {
            data: Data::Shared(Arc::new(vec)),
            start: 0,
            end,
        }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::from(b.into_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.as_slice().to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        Vec::from(self).into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Debug-print bytes as an escaped byte string, like the published crate.
fn fmt_bytes(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in bytes {
        match b {
            b'\n' => write!(f, "\\n")?,
            b'\r' => write!(f, "\\r")?,
            b'\t' => write!(f, "\\t")?,
            b'\\' | b'"' => write!(f, "\\{}", b as char)?,
            0x20..=0x7e => write!(f, "{}", b as char)?,
            _ => write!(f, "\\x{b:02x}")?,
        }
    }
    write!(f, "\"")
}

macro_rules! impl_slice_traits {
    ($ty:ty) => {
        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt_bytes(&self[..], f)
            }
        }
        impl PartialEq for $ty {
            fn eq(&self, other: &$ty) -> bool {
                self[..] == other[..]
            }
        }
        impl Eq for $ty {}
        impl PartialOrd for $ty {
            fn partial_cmp(&self, other: &$ty) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for $ty {
            fn cmp(&self, other: &$ty) -> Ordering {
                self[..].cmp(&other[..])
            }
        }
        impl Hash for $ty {
            fn hash<H: Hasher>(&self, state: &mut H) {
                self[..].hash(state)
            }
        }
        impl PartialEq<[u8]> for $ty {
            fn eq(&self, other: &[u8]) -> bool {
                self[..] == *other
            }
        }
        impl PartialEq<$ty> for [u8] {
            fn eq(&self, other: &$ty) -> bool {
                *self == other[..]
            }
        }
        impl PartialEq<&[u8]> for $ty {
            fn eq(&self, other: &&[u8]) -> bool {
                self[..] == **other
            }
        }
        impl PartialEq<$ty> for &[u8] {
            fn eq(&self, other: &$ty) -> bool {
                **self == other[..]
            }
        }
        impl<const N: usize> PartialEq<[u8; N]> for $ty {
            fn eq(&self, other: &[u8; N]) -> bool {
                self[..] == other[..]
            }
        }
        impl<const N: usize> PartialEq<&[u8; N]> for $ty {
            fn eq(&self, other: &&[u8; N]) -> bool {
                self[..] == other[..]
            }
        }
        impl PartialEq<Vec<u8>> for $ty {
            fn eq(&self, other: &Vec<u8>) -> bool {
                self[..] == other[..]
            }
        }
        impl PartialEq<$ty> for Vec<u8> {
            fn eq(&self, other: &$ty) -> bool {
                self[..] == other[..]
            }
        }
        impl PartialEq<str> for $ty {
            fn eq(&self, other: &str) -> bool {
                self[..] == *other.as_bytes()
            }
        }
        impl PartialEq<&str> for $ty {
            fn eq(&self, other: &&str) -> bool {
                self[..] == *other.as_bytes()
            }
        }
    };
}

impl_slice_traits!(Bytes);
impl_slice_traits!(BytesMut);

impl PartialEq<BytesMut> for Bytes {
    fn eq(&self, other: &BytesMut) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for BytesMut {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

/// A growable byte buffer that can be read from the front (`Buf`) and
/// appended to at the back (`BufMut`).
#[derive(Clone, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
    /// Bytes already consumed from the front by `advance`/`split_to`.
    off: usize,
}

impl BytesMut {
    pub const fn new() -> BytesMut {
        BytesMut {
            buf: Vec::new(),
            off: 0,
        }
    }

    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(capacity),
            off: 0,
        }
    }

    /// A buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> BytesMut {
        BytesMut {
            buf: vec![0; len],
            off: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len() - self.off
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.buf.capacity() - self.off
    }

    /// Drop the consumed prefix so the whole allocation is writable again.
    fn compact(&mut self) {
        if self.off > 0 {
            self.buf.drain(..self.off);
            self.off = 0;
        }
    }

    pub fn reserve(&mut self, additional: usize) {
        if self.buf.capacity() - self.buf.len() < additional {
            self.compact();
            self.buf.reserve(additional);
        }
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(self.off + new_len, value);
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.buf.truncate(self.off + len);
        }
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.off = 0;
    }

    /// Convert into an immutable `Bytes` without copying the payload.
    pub fn freeze(mut self) -> Bytes {
        self.compact();
        Bytes::from(self.buf)
    }

    /// Take the whole contents, leaving `self` empty.
    pub fn split(&mut self) -> BytesMut {
        let out = BytesMut {
            buf: std::mem::take(&mut self.buf),
            off: self.off,
        };
        self.off = 0;
        out
    }

    /// Split off and return `[0, at)`; `self` keeps `[at, len)`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = BytesMut {
            buf: self[..at].to_vec(),
            off: 0,
        };
        self.advance_front(at);
        head
    }

    /// Split off and return `[at, len)`; `self` keeps `[0, at)`.
    pub fn split_off(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_off out of bounds");
        BytesMut {
            buf: self.buf.split_off(self.off + at),
            off: 0,
        }
    }

    /// Append `other`, the inverse of a split.
    pub fn unsplit(&mut self, other: BytesMut) {
        self.buf.extend_from_slice(&other);
    }

    fn advance_front(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past the end of the buffer");
        self.off += cnt;
        if self.off == self.buf.len() {
            self.buf.clear();
            self.off = 0;
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[self.off..]
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.off..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        self
    }
}

impl Borrow<[u8]> for BytesMut {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<&[u8]> for BytesMut {
    fn from(src: &[u8]) -> BytesMut {
        BytesMut {
            buf: src.to_vec(),
            off: 0,
        }
    }
}

impl From<&str> for BytesMut {
    fn from(src: &str) -> BytesMut {
        BytesMut::from(src.as_bytes())
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> BytesMut {
        BytesMut { buf, off: 0 }
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(mut b: BytesMut) -> Vec<u8> {
        b.compact();
        b.buf
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl<'a> Extend<&'a u8> for BytesMut {
    fn extend<I: IntoIterator<Item = &'a u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl FromIterator<u8> for BytesMut {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> BytesMut {
        BytesMut::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a BytesMut {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Write for BytesMut {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

macro_rules! buf_get {
    ($($name:ident, $name_le:ident, $name_ne:ident => $ty:ty;)*) => {$(
        fn $name(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_be_bytes(raw)
        }
        fn $name_le(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_le_bytes(raw)
        }
        fn $name_ne(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_ne_bytes(raw)
        }
    )*};
}

/// A cursor over readable bytes. Accessors panic when fewer bytes remain
/// than they need, as in the published crate: check `remaining` first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes, contiguous from the cursor. Every implementation
    /// here is contiguous, so this is all of them.
    fn chunk(&self) -> &[u8];

    /// Move the cursor forward by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            self.remaining() >= dst.len(),
            "buffer underflow: need {} bytes, have {}",
            dst.len(),
            self.remaining()
        );
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow in copy_to_bytes");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    buf_get! {
        get_u16, get_u16_le, get_u16_ne => u16;
        get_i16, get_i16_le, get_i16_ne => i16;
        get_u32, get_u32_le, get_u32_ne => u32;
        get_i32, get_i32_le, get_i32_ne => i32;
        get_u64, get_u64_le, get_u64_ne => u64;
        get_i64, get_i64_le, get_i64_ne => i64;
        get_u128, get_u128_le, get_u128_ne => u128;
        get_i128, get_i128_le, get_i128_ne => i128;
        get_f32, get_f32_le, get_f32_ne => f32;
        get_f64, get_f64_le, get_f64_ne => f64;
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past the end of the buffer");
        self.start += cnt;
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        self.advance_front(cnt);
    }
}

impl<T: AsRef<[u8]>> Buf for std::io::Cursor<T> {
    fn remaining(&self) -> usize {
        let len = self.get_ref().as_ref().len() as u64;
        len.saturating_sub(self.position()) as usize
    }
    fn chunk(&self) -> &[u8] {
        let slice = self.get_ref().as_ref();
        let pos = (self.position() as usize).min(slice.len());
        &slice[pos..]
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.remaining(), "advance past the end of the buffer");
        self.set_position(self.position() + cnt as u64);
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }
    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }
    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }
}

macro_rules! buf_put {
    ($($name:ident, $name_le:ident, $name_ne:ident => $ty:ty;)*) => {$(
        fn $name(&mut self, n: $ty) {
            self.put_slice(&n.to_be_bytes());
        }
        fn $name_le(&mut self, n: $ty) {
            self.put_slice(&n.to_le_bytes());
        }
        fn $name_ne(&mut self, n: $ty) {
            self.put_slice(&n.to_ne_bytes());
        }
    )*};
}

/// An appendable byte sink. Growable implementations never run out of room.
pub trait BufMut {
    /// Bytes that can still be written.
    fn remaining_mut(&self) -> usize;

    /// Append `src`.
    fn put_slice(&mut self, src: &[u8]);

    fn has_remaining_mut(&self) -> bool {
        self.remaining_mut() > 0
    }

    /// Drain `src` into `self`.
    fn put<T: Buf>(&mut self, mut src: T)
    where
        Self: Sized,
    {
        while src.has_remaining() {
            let n = {
                let chunk = src.chunk();
                self.put_slice(chunk);
                chunk.len()
            };
            src.advance(n);
        }
    }

    /// Append `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_slice(&[val]);
        }
    }

    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    fn put_i8(&mut self, n: i8) {
        self.put_slice(&[n as u8]);
    }

    buf_put! {
        put_u16, put_u16_le, put_u16_ne => u16;
        put_i16, put_i16_le, put_i16_ne => i16;
        put_u32, put_u32_le, put_u32_ne => u32;
        put_i32, put_i32_le, put_i32_ne => i32;
        put_u64, put_u64_le, put_u64_ne => u64;
        put_i64, put_i64_le, put_i64_ne => i64;
        put_u128, put_u128_le, put_u128_ne => u128;
        put_i128, put_i128_le, put_i128_ne => i128;
        put_f32, put_f32_le, put_f32_ne => f32;
        put_f64, put_f64_le, put_f64_ne => f64;
    }
}

impl BufMut for BytesMut {
    fn remaining_mut(&self) -> usize {
        usize::MAX - self.buf.len()
    }
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        let len = self.buf.len();
        self.buf.resize(len + cnt, val);
    }
}

impl BufMut for Vec<u8> {
    fn remaining_mut(&self) -> usize {
        usize::MAX - self.len()
    }
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        let len = self.len();
        self.resize(len + cnt, val);
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn remaining_mut(&self) -> usize {
        (**self).remaining_mut()
    }
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_slices_share_and_compare() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let mid = b.slice(1..4);
        assert_eq!(&mid[..], &[2, 3, 4]);
        assert_eq!(b.slice_ref(&b[2..]), Bytes::from_static(&[3, 4, 5]));
        let mut rest = b.clone();
        let head = rest.split_to(2);
        assert_eq!((&head[..], &rest[..]), (&[1u8, 2][..], &[3u8, 4, 5][..]));
    }

    #[test]
    fn bytes_mut_round_trips_numbers_and_splits() {
        let mut m = BytesMut::with_capacity(4);
        m.put_u8(7);
        m.put_u16_le(0x1234);
        m.put_u64_le(u64::MAX - 1);
        m.put_f32_le(1.5);
        m.put(&b"xy"[..]);
        let mut frozen = m.split().freeze();
        assert!(m.is_empty());
        assert_eq!(frozen.get_u8(), 7);
        assert_eq!(frozen.get_u16_le(), 0x1234);
        assert_eq!(frozen.get_u64_le(), u64::MAX - 1);
        assert_eq!(frozen.get_f32_le(), 1.5);
        assert_eq!(frozen.remaining(), 2);
        assert_eq!(frozen.copy_to_bytes(2), "xy");
    }

    #[test]
    fn bytes_mut_advance_then_append_keeps_the_unread_tail() {
        let mut m = BytesMut::from(&b"abcdef"[..]);
        m.advance(4);
        m.reserve(1024);
        m.extend_from_slice(b"gh");
        assert_eq!(&m[..], b"efgh");
        let tail = m.split_off(2);
        assert_eq!((&m[..], &tail[..]), (&b"ef"[..], &b"gh"[..]));
    }
}
