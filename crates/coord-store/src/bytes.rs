//! Little-endian byte encoding helpers shared by record, snapshot and
//! query codecs. No varints, no reflection: fixed-width integers and
//! length-prefixed strings keep the format trivially auditable.

use crate::error::StoreError;

/// Append a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a length-prefixed byte slice.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Sequential reader over an encoded buffer. Every accessor fails with
/// [`StoreError::Codec`] instead of panicking, so a corrupt payload that
/// slipped past the frame checksum still surfaces as an error.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.buf.len() - self.pos < n {
            return Err(StoreError::codec("record payload shorter than declared"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| StoreError::codec("invalid UTF-8 in record"))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a `u32` element count, rejecting one the unread bytes cannot
    /// hold at `min_encoded` bytes per element. Decoders reserve that
    /// many elements, so a count bounded by the payload keeps a corrupt
    /// length from asking for more memory than the payload's size.
    pub fn count(&mut self, min_encoded: usize) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / min_encoded {
            return Err(StoreError::codec(format!(
                "count {n} exceeds what the remaining payload can hold"
            )));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_u64(&mut out, u64::MAX);
        put_i64(&mut out, -42);
        put_str(&mut out, "héllo");
        put_bytes(&mut out, &[1, 2, 3]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn count_is_bounded_by_the_remaining_bytes() {
        let mut out = Vec::new();
        put_u32(&mut out, 2);
        put_u64(&mut out, 1);
        put_u64(&mut out, 2);
        assert_eq!(Reader::new(&out).count(8).unwrap(), 2);
        assert!(Reader::new(&out).count(9).is_err());
        assert!(Reader::new(&u32::MAX.to_le_bytes()).count(1).is_err());
    }

    #[test]
    fn short_buffer_errors_instead_of_panicking() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u64().is_err());
        let mut out = Vec::new();
        put_u32(&mut out, 100); // declares 100 bytes, provides none
        let mut r = Reader::new(&out);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn invalid_utf8_is_a_codec_error() {
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xFF, 0xFE]);
        let mut r = Reader::new(&out);
        assert!(r.str().is_err());
    }
}
