//! Raw little-endian f32 file I/O, whole-file and streaming.

use rq_grid::{NdArray, Shape};
use std::io::Read;

/// Read a raw little-endian `f32` file into a field of the given shape.
pub fn read_raw_f32(path: &str, shape: Shape) -> Result<NdArray<f32>, String> {
    let whole = raw_slabs(path, shape, shape.dim(0))?.next().expect("a shape has a first slab");
    whole.map_err(|e| format!("{path}: {e}"))
}

/// Write a field as raw little-endian `f32`.
pub fn write_raw_f32(path: &str, field: &NdArray<f32>) -> Result<(), String> {
    let mut out = Vec::with_capacity(field.len() * 4);
    for &v in field.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    write_bytes(path, &out)
}

/// Read a whole file.
pub fn read_bytes(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{path}: {e}"))
}

/// Stream a raw little-endian `f32` file of `shape` as axis-0 slabs of
/// `rows` rows each (the last may be short), after checking the file's
/// size against the shape — the one read loop behind every
/// bounded-memory pass over an input. At most one slab is resident.
pub fn raw_slabs(
    path: &str,
    shape: Shape,
    rows: usize,
) -> Result<impl Iterator<Item = std::io::Result<NdArray<f32>>>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let len = file.metadata().map_err(|e| format!("{path}: {e}"))?.len();
    let expect = shape.len() as u64 * 4;
    if len != expect {
        return Err(format!("{path}: {len} bytes but shape {:?} needs {expect}", shape.dims()));
    }
    let mut src = std::io::BufReader::new(file);
    let mut left = shape.dim(0);
    Ok(std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let slab = shape.with_rows(rows.min(left));
        left -= slab.dim(0);
        let mut bytes = vec![0u8; slab.len() * 4];
        Some(src.read_exact(&mut bytes).map(|()| {
            let value = |c: &[u8]| f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            NdArray::from_vec(slab, bytes.chunks_exact(4).map(value).collect())
        }))
    }))
}

/// Write a whole file.
pub fn write_bytes(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip() {
        let dir = std::env::temp_dir().join("rqm_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.f32");
        let f = NdArray::<f32>::from_fn(Shape::d1(10), |ix| ix[0] as f32 * 1.5);
        write_raw_f32(p.to_str().unwrap(), &f).unwrap();
        let g = read_raw_f32(p.to_str().unwrap(), Shape::d1(10)).unwrap();
        assert_eq!(f.as_slice(), g.as_slice());
    }

    #[test]
    fn size_mismatch_is_error() {
        let dir = std::env::temp_dir().join("rqm_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("s.f32");
        write_bytes(p.to_str().unwrap(), &[0u8; 12]).unwrap();
        assert!(read_raw_f32(p.to_str().unwrap(), Shape::d1(10)).is_err());
    }

    #[test]
    fn raw_slabs_tile_the_file_and_check_its_size() {
        let dir = std::env::temp_dir().join("rqm_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("slabs.f32");
        let f = NdArray::<f32>::from_fn(Shape::d2(7, 3), |ix| (ix[0] * 3 + ix[1]) as f32);
        write_raw_f32(p.to_str().unwrap(), &f).unwrap();
        let slabs: Vec<NdArray<f32>> =
            raw_slabs(p.to_str().unwrap(), f.shape(), 3).unwrap().map(Result::unwrap).collect();
        let rows: Vec<usize> = slabs.iter().map(|s| s.shape().dim(0)).collect();
        assert_eq!(rows, [3, 3, 1]);
        let joined: Vec<f32> = slabs.iter().flat_map(|s| s.as_slice().iter().copied()).collect();
        assert_eq!(joined, f.as_slice());
        assert!(raw_slabs(p.to_str().unwrap(), Shape::d2(8, 3), 3).is_err());
    }

    #[test]
    fn missing_file_is_error() {
        assert!(read_bytes("/definitely/not/here").is_err());
    }
}
