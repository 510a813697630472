//! The workspace's one little-endian binary codec.
//!
//! Every on-disk format goes through it: FTT1 tensor files (`ft-data`),
//! FTW1 parameter blobs (`ft-nn`) and the FTC1 checkpoint/model container
//! (`fno-core`). [`Reader`] decodes from a byte-slice cursor
//! (`&mut &[u8]`, advanced past every field it reads); [`Writer`] appends
//! the same fields to a `Vec<u8>`. Integers are `u32`/`u64`, floats the
//! IEEE-754 bits of an `f64`, and a shape ([`Reader::dims`]) is a `u32`
//! rank followed by `u64 × rank` extents.
//!
//! The reader has **one bounding rule**: a count or length read from the
//! input is accepted only if the bytes that remain can hold it, and
//! nothing is reserved from a declared count before that check. A corrupt
//! or hostile input therefore fails with [`io::ErrorKind::InvalidData`]
//! after allocating at most in proportion to its own length. Format
//! checks (magic, version, flag bytes, …) stay with each format.

use std::io;

/// An [`io::ErrorKind::InvalidData`] error carrying `msg`.
pub fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Bounded little-endian decoding from the front of a byte slice.
pub trait Reader<'a> {
    /// Consumes the next `n` bytes; fails, consuming nothing, if fewer remain.
    fn next_bytes(&mut self, n: usize) -> io::Result<&'a [u8]>;

    /// Fails unless every byte has been consumed.
    fn finish(&self) -> io::Result<()>;

    /// The bounding rule: `n` as a `usize`, if the bytes that remain can
    /// hold `n` items of `item_bytes` (at least 1) each.
    fn fits(&self, n: u64, item_bytes: usize) -> io::Result<usize>;

    /// Reads `N` raw bytes (a magic number, say).
    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.next_bytes(N)?.try_into().expect("next_bytes returns N bytes"))
    }

    /// Reads one byte.
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    fn f64(&mut self) -> io::Result<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads a `u32` count of items that take at least `item_bytes` each,
    /// accepted only if the bytes that remain can hold them.
    fn count_u32(&mut self, item_bytes: usize) -> io::Result<usize> {
        let n = self.u32()?;
        self.fits(n.into(), item_bytes)
    }

    /// [`Reader::count_u32`] for a `u64` count.
    fn count_u64(&mut self, item_bytes: usize) -> io::Result<usize> {
        let n = self.u64()?;
        self.fits(n, item_bytes)
    }

    /// Reads `n` little-endian `f64`s; fails before allocating if fewer
    /// than `8 n` bytes remain.
    fn f64s(&mut self, n: usize) -> io::Result<Vec<f64>> {
        let bytes = self.next_bytes(self.fits(n as u64, 8)? * 8)?;
        Ok(bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Reads a shape: a `u32` rank, then one `u64` extent per axis. Zero
    /// extents are allowed; the product of the non-zero extents must fit a
    /// `usize`, so every partial product a tensor forms of them does too.
    fn dims(&mut self) -> io::Result<Vec<usize>> {
        let rank = self.count_u32(8)?;
        let dims = (0..rank)
            .map(|_| usize::try_from(self.u64()?).map_err(|_| invalid("dimension overflows")))
            .collect::<io::Result<Vec<usize>>>()?;
        dims.iter()
            .filter(|&&d| d != 0)
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| invalid("dimension product overflows"))?;
        Ok(dims)
    }
}

impl<'a> Reader<'a> for &'a [u8] {
    fn next_bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.len() {
            return Err(invalid("input ends before the data it declares"));
        }
        let (head, rest) = self.split_at(n);
        *self = rest;
        Ok(head)
    }

    fn finish(&self) -> io::Result<()> {
        if !self.is_empty() {
            return Err(invalid("trailing bytes after the encoded data"));
        }
        Ok(())
    }

    fn fits(&self, n: u64, item_bytes: usize) -> io::Result<usize> {
        if n > (self.len() / item_bytes) as u64 {
            return Err(invalid("declared count exceeds the remaining input"));
        }
        Ok(n as usize)
    }
}

/// Little-endian encoding of the fields [`Reader`] decodes.
pub trait Writer {
    /// Appends raw bytes (a magic number, say).
    fn put_bytes(&mut self, bytes: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends every value of `vs` as a little-endian `f64`.
    fn put_f64s(&mut self, vs: &[f64]) {
        vs.iter().for_each(|&v| self.put_f64(v));
    }

    /// Appends a shape as [`Reader::dims`] reads it.
    fn put_dims(&mut self, dims: &[usize]) {
        self.put_u32(dims.len() as u32);
        dims.iter().for_each(|&d| self.put_u64(d as u64));
    }
}

impl Writer for Vec<u8> {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip_and_consume_exactly_their_bytes() {
        let mut out = Vec::new();
        out.put_bytes(b"MAGC");
        out.put_u8(7);
        out.put_u32(0xDEAD_BEEF);
        out.put_u64(u64::MAX - 1);
        out.put_f64(-0.0);
        out.put_f64s(&[1.5, f64::NAN, f64::INFINITY]);
        out.put_dims(&[3, 0, 5]);
        assert_eq!(out.len(), 4 + 1 + 4 + 8 + 8 + 24 + 4 + 24);

        let mut r = &out[..];
        assert_eq!(&r.array::<4>().unwrap(), b"MAGC");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        let vs = r.f64s(3).unwrap();
        assert_eq!(vs[0], 1.5);
        assert!(vs[1].is_nan());
        assert_eq!(vs[2], f64::INFINITY);
        assert_eq!(r.dims().unwrap(), vec![3, 0, 5]);
        r.finish().unwrap();
    }

    #[test]
    fn short_input_is_invalid_data() {
        let mut r: &[u8] = &[1, 2, 3];
        assert_eq!(r.u32().unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(r.f64s(1).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(r.finish().unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(r.u8().unwrap(), 1, "a failed read consumes nothing");
    }

    #[test]
    fn counts_must_fit_the_remaining_bytes() {
        let mut bytes = Vec::new();
        bytes.put_u32(2);
        bytes.put_f64s(&[0.0, 0.0]);
        assert_eq!((&bytes[..]).count_u32(8).unwrap(), 2);
        assert!((&bytes[..]).count_u32(9).is_err());
        assert!((&bytes[..]).count_u32(usize::MAX).is_err());

        let mut bytes = Vec::new();
        bytes.put_u64(u64::MAX);
        assert!((&bytes[..]).count_u64(1).is_err());
        assert!((&bytes[..]).f64s(usize::MAX).is_err());
    }

    #[test]
    fn dims_reject_unheld_ranks_and_overflowing_products() {
        let mut rank_only = Vec::new();
        rank_only.put_u32(1 << 20);
        assert!((&rank_only[..]).dims().is_err());

        let mut huge = Vec::new();
        huge.put_dims(&[0, 1 << 40, 1 << 40]);
        assert!((&huge[..]).dims().is_err(), "non-zero extents overflow");

        let mut empty = Vec::new();
        empty.put_dims(&[0, 1 << 40]);
        assert_eq!((&empty[..]).dims().unwrap(), vec![0, 1 << 40]);
    }
}
