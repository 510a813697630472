//! On-disk storage: a minimal self-describing binary tensor format and a
//! CSV writer for the experiment harness.
//!
//! Format (little-endian): magic `FTT1`, rank `u32`, dims `u64 × rank`,
//! then the row-major `f64` payload. Both directions go through the
//! workspace's one binary codec, [`ft_tensor::codec`].

use std::io;
use std::path::{Path, PathBuf};

use ft_tensor::codec::{invalid, Reader, Writer};
use ft_tensor::Tensor;

const MAGIC: &[u8; 4] = b"FTT1";

/// Writes a tensor to `path` in the `FTT1` format, atomically
/// ([`ft_obs::bench::write_atomic`]): an interrupted write leaves any
/// previous file at `path` as it was.
pub fn save_tensor(path: impl AsRef<Path>, t: &Tensor) -> io::Result<()> {
    let mut out = MAGIC.to_vec();
    out.put_dims(t.dims());
    out.put_f64s(t.data());
    ft_obs::bench::write_atomic(path.as_ref(), &out)
}

/// Reads a tensor from `path`, validating the header.
///
/// The codec's bounding rule checks every size the header claims against
/// the bytes actually present before allocating for it, so a corrupt or
/// truncated file fails with [`io::ErrorKind::InvalidData`] instead of
/// attempting a multi-gigabyte `Vec` or panicking on an overflowing size
/// product. Extents may be zero; the file must end with the payload.
pub fn load_tensor(path: impl AsRef<Path>) -> io::Result<Tensor> {
    let bytes = std::fs::read(path)?;
    let mut r = &bytes[..];
    if &r.array::<4>()? != MAGIC {
        return Err(invalid("not an FTT1 tensor file"));
    }
    let dims = r.dims()?;
    let data = r.f64s(dims.iter().product())?;
    r.finish()?;
    Ok(Tensor::from_vec(&dims, data))
}

/// A small CSV emitter used by the figure/table harness binaries.
///
/// Crash-consistent: rows accumulate in memory and reach disk in one
/// atomic write ([`ft_obs::bench::write_atomic`]) when the writer is
/// finished (explicitly via [`CsvWriter::finish`] or implicitly on drop).
/// An interrupted run therefore never leaves a half-written
/// `results/*.csv` — the previous complete file, if any, stays in place.
pub struct CsvWriter {
    /// The header and rows so far.
    text: String,
    columns: usize,
    /// The final path; taken when the file is written.
    dst: Option<PathBuf>,
}

impl CsvWriter {
    /// Starts a table for `path` with its header row.
    pub fn create(path: impl AsRef<Path>, header: &[&str]) -> io::Result<Self> {
        let dst = path.as_ref().to_path_buf();
        if dst.file_name().is_none() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"));
        }
        Ok(CsvWriter { text: header.join(",") + "\n", columns: header.len(), dst: Some(dst) })
    }

    /// Appends one numeric row (must match the header width); cannot fail.
    pub fn row(&mut self, values: &[f64]) -> io::Result<()> {
        assert_eq!(values.len(), self.columns, "row width does not match header");
        let line: Vec<String> = values.iter().map(|v| format!("{v:.10e}")).collect();
        self.text += &(line.join(",") + "\n");
        Ok(())
    }

    /// Appends a row with a leading label, then numeric columns; cannot fail.
    pub fn labeled_row(&mut self, label: &str, values: &[f64]) -> io::Result<()> {
        assert_eq!(values.len() + 1, self.columns, "row width does not match header");
        let mut line = vec![label.to_string()];
        line.extend(values.iter().map(|v| format!("{v:.10e}")));
        self.text += &(line.join(",") + "\n");
        Ok(())
    }

    /// Does nothing: rows stay in memory until the writer is finished, and
    /// the final path only appears then.
    pub fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Writes the file atomically, surfacing any I/O error. Dropping the
    /// writer does the same but can only ignore failures.
    pub fn finish(mut self) -> io::Result<()> {
        self.commit()
    }

    fn commit(&mut self) -> io::Result<()> {
        let Some(dst) = self.dst.take() else { return Ok(()) };
        ft_obs::bench::write_atomic(&dst, self.text.as_bytes())
    }
}

impl Drop for CsvWriter {
    fn drop(&mut self) {
        self.commit().ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ft_data_io_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn tensor_roundtrip() {
        let t = Tensor::from_fn(&[3, 4, 5], |i| (i[0] * 20 + i[1] * 5 + i[2]) as f64 * 0.5 - 7.0);
        let p = tmpfile("roundtrip.ftt");
        save_tensor(&p, &t).unwrap();
        let back = load_tensor(&p).unwrap();
        assert_eq!(back.dims(), t.dims());
        assert!(back.allclose(&t, 0.0));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn scalar_and_empty_shapes() {
        for dims in [vec![], vec![0], vec![2, 0, 3]] {
            let t = Tensor::zeros(&dims);
            let p = tmpfile(&format!("shape_{}.ftt", dims.len()));
            save_tensor(&p, &t).unwrap();
            let back = load_tensor(&p).unwrap();
            assert_eq!(back.dims(), t.dims());
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let p = tmpfile("bad.ftt");
        std::fs::write(&p, b"NOPE....").unwrap();
        assert!(load_tensor(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_truncated_payload() {
        let t = Tensor::from_fn(&[4, 4], |i| i[0] as f64);
        let p = tmpfile("trunc.ftt");
        save_tensor(&p, &t).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 9]).unwrap();
        assert!(load_tensor(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_overflowing_dims() {
        // rank 2, dims [u32::MAX, u32::MAX]: the product overflows the
        // element count on 32-bit and the byte count times 8 in general —
        // must be InvalidData, not a panic or an absurd allocation.
        let p = tmpfile("overflow.ftt");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"FTT1");
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        bytes.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let err = load_tensor(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_size_mismatch_before_allocating() {
        // Header claims 2^30 elements but the file holds none: the loader
        // must reject from the size check alone.
        let p = tmpfile("hugeclaim.ftt");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"FTT1");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 30).to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let err = load_tensor(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn failed_tensor_save_keeps_the_previous_file() {
        let p = tmpfile("keep.ftt");
        let old = Tensor::from_fn(&[2, 2], |i| i[1] as f64);
        save_tensor(&p, &old).unwrap();
        // A directory squatting on the temp sibling makes the next write
        // fail before the rename: the complete old file must survive.
        let tmp = p.with_file_name(format!(".{}.tmp", p.file_name().unwrap().to_string_lossy()));
        std::fs::create_dir(&tmp).unwrap();
        assert!(save_tensor(&p, &Tensor::zeros(&[3])).is_err());
        std::fs::remove_dir(&tmp).unwrap();
        assert!(load_tensor(&p).unwrap().allclose(&old, 0.0));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn csv_is_atomic() {
        let p = tmpfile("atomic.csv");
        std::fs::remove_file(&p).ok();
        let mut w = CsvWriter::create(&p, &["a"]).unwrap();
        w.row(&[1.0]).unwrap();
        w.flush().unwrap();
        // Nothing at the final path until the writer is finished.
        assert!(!p.exists(), "final path must not exist mid-write");
        w.finish().unwrap();
        assert!(p.exists());
        let tmp = p.with_file_name(format!(
            ".{}.tmp",
            p.file_name().unwrap().to_string_lossy()
        ));
        assert!(!tmp.exists(), "temp file must be renamed away");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "a\n1.0000000000e0\n");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn csv_commits_on_drop() {
        let p = tmpfile("drop.csv");
        std::fs::remove_file(&p).ok();
        {
            let mut w = CsvWriter::create(&p, &["a", "b"]).unwrap();
            w.row(&[1.0, 2.0]).unwrap();
        }
        assert!(p.exists(), "drop must commit the file");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn csv_writer_emits_rows() {
        let p = tmpfile("table.csv");
        {
            let mut w = CsvWriter::create(&p, &["t", "value"]).unwrap();
            w.row(&[0.0, 1.5]).unwrap();
            w.row(&[1.0, 2.5]).unwrap();
            w.flush().unwrap();
        }
        let text = std::fs::read_to_string(&p).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "t,value");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0.0000000000e0,"));
        std::fs::remove_file(&p).ok();
    }
}
