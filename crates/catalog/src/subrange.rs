//! A `Read + Seek` window over a byte range of a shared source.

use std::io::{self, Read, Seek, SeekFrom};
use std::sync::{Arc, Mutex};

/// Presents bytes `[start, start + len)` of a shared source as a
/// standalone `Read + Seek` stream whose position 0 is `start`.
///
/// This is how an embedded archive segment of a catalog becomes "a normal
/// archive" for [`rq_compress::ArchiveReader`]: the segment's window is
/// carved out and the archive reader never learns it lives inside a
/// bigger file.
///
/// Every window of one [`CatalogReader`](crate::CatalogReader) shares
/// its one source. A window keeps its own position; a read seeks the
/// source there and reads, both under the source's lock, so windows may
/// be read from any number of threads at once.
pub struct SubRange<R> {
    src: Arc<Mutex<R>>,
    start: u64,
    len: u64,
    /// Window-relative cursor; a read starts at `start + pos` of `src`.
    pos: u64,
}

impl<R> SubRange<R> {
    /// A window of `len` bytes of `src` at absolute offset `start`.
    pub fn new(src: Arc<Mutex<R>>, start: u64, len: u64) -> Self {
        SubRange { src, start, len, pos: 0 }
    }

    /// Window length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<R: Read + Seek> Read for SubRange<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remain = self.len.saturating_sub(self.pos);
        if remain == 0 || buf.is_empty() {
            return Ok(0);
        }
        let n = (buf.len() as u64).min(remain) as usize;
        let got = {
            // A poisoned lock is taken as is: every read seeks first, so a
            // source position left behind by a panic is never relied on.
            let mut src = self.src.lock().unwrap_or_else(|p| p.into_inner());
            src.seek(SeekFrom::Start(self.start + self.pos))?;
            src.read(&mut buf[..n])?
        };
        self.pos += got as u64;
        Ok(got)
    }
}

impl<R> Seek for SubRange<R> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let target = match pos {
            SeekFrom::Start(p) => p as i128,
            SeekFrom::End(off) => self.len as i128 + off as i128,
            SeekFrom::Current(off) => self.pos as i128 + off as i128,
        };
        if target < 0 || target > u64::MAX as i128 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "seek before start of sub-range",
            ));
        }
        // Seeking past the end is legal (like a file); reads there hit EOF.
        self.pos = target as u64;
        Ok(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn shared(data: Vec<u8>) -> Arc<Mutex<Cursor<Vec<u8>>>> {
        Arc::new(Mutex::new(Cursor::new(data)))
    }

    #[test]
    fn reads_are_clamped_to_the_window() {
        let data: Vec<u8> = (0u8..100).collect();
        let mut sr = SubRange::new(shared(data), 10, 20);
        let mut buf = [0u8; 64];
        let n = sr.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], &(10u8..30).collect::<Vec<_>>()[..]);
        assert_eq!(sr.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn seek_is_window_relative() {
        let data: Vec<u8> = (0u8..100).collect();
        let mut sr = SubRange::new(shared(data), 10, 20);
        assert_eq!(sr.seek(SeekFrom::End(-4)).unwrap(), 16);
        let mut buf = [0u8; 8];
        let n = sr.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], &[26, 27, 28, 29]);
        assert!(sr.seek(SeekFrom::Current(-100)).is_err());
    }

    #[test]
    fn windows_of_one_source_keep_their_own_positions() {
        let src = shared((0u8..100).collect());
        let mut a = SubRange::new(Arc::clone(&src), 0, 50);
        let mut b = SubRange::new(src, 50, 50);
        let mut buf = [0u8; 2];
        a.read_exact(&mut buf).unwrap();
        b.read_exact(&mut buf).unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [2, 3]);
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [52, 53]);
    }
}
