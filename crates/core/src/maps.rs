//! Projected density maps and simple image/table writers (Figs. 4 & 8).

#![allow(
    clippy::disallowed_methods,
    reason = "figure exports (PGM images, CSV tables), not simulation state"
)]

use std::io::Write;
use std::path::Path;
use vlasov6d_mesh::Field3;

/// Project a 3-D field along axis 0 and log-scale it into `[0, 1]` for
/// display, using `dynamic_range` decades below the maximum.
pub fn log_projection(field: &Field3, dynamic_range: f64) -> (Vec<f64>, [usize; 2]) {
    let [_, n1, n2] = field.dims();
    let map = field.project_axis0();
    let max = map.iter().cloned().fold(f64::MIN, f64::max).max(1e-300);
    let floor = max / 10f64.powf(dynamic_range);
    let scaled: Vec<f64> = map
        .iter()
        .map(|&v| ((v.max(floor) / floor).log10() / dynamic_range).clamp(0.0, 1.0))
        .collect();
    (scaled, [n1, n2])
}

/// Write a grayscale map as a binary PGM (P5) image.
pub fn write_pgm(path: &Path, data: &[f64], dims: [usize; 2]) -> std::io::Result<()> {
    assert_eq!(data.len(), dims[0] * dims[1]);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "P5\n{} {}\n255", dims[1], dims[0])?;
    let bytes: Vec<u8> = data
        .iter()
        .map(|&v| (v.clamp(0.0, 1.0) * 255.0) as u8)
        .collect();
    f.write_all(&bytes)?;
    Ok(())
}

/// Write a 2-D map as CSV (row per line).
pub fn write_csv(path: &Path, data: &[f64], dims: [usize; 2]) -> std::io::Result<()> {
    assert_eq!(data.len(), dims[0] * dims[1]);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for row in 0..dims[0] {
        let cells: Vec<String> = (0..dims[1])
            .map(|c| format!("{:.6e}", data[row * dims[1] + c]))
            .collect();
        writeln!(f, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Write `(x, y...)` series as a CSV table with a header.
pub fn write_series(path: &Path, header: &[&str], columns: &[&[f64]]) -> std::io::Result<()> {
    assert_eq!(header.len(), columns.len());
    assert!(!columns.is_empty());
    let n = columns[0].len();
    assert!(columns.iter().all(|c| c.len() == n), "ragged columns");
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{}", header.join(","))?;
    for i in 0..n {
        let row: Vec<String> = columns.iter().map(|c| format!("{:.8e}", c[i])).collect();
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_projection_is_normalised() {
        let mut f = Field3::zeros_cubic(8);
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = 1.0 + (i % 17) as f64;
        }
        let (map, dims) = log_projection(&f, 3.0);
        assert_eq!(dims, [8, 8]);
        assert_eq!(map.len(), 64);
        assert!(map.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(map.iter().cloned().fold(f64::MIN, f64::max) > 0.99);
    }

    #[test]
    fn pgm_roundtrip_header() {
        let dir = std::env::temp_dir().join("vlasov6d_test_maps");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pgm");
        write_pgm(&path, &[0.0, 0.5, 1.0, 0.25], [2, 2]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let text = String::from_utf8_lossy(&bytes[..12]);
        assert!(text.starts_with("P5\n2 2\n255"), "{text}");
        assert_eq!(bytes.len(), 11 + 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn csv_writers_produce_expected_shapes() {
        let dir = std::env::temp_dir().join("vlasov6d_test_maps");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv(&path, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(text.lines().next().unwrap().split(',').count(), 3);

        let spath = dir.join("s.csv");
        write_series(&spath, &["k", "p"], &[&[1.0, 2.0], &[0.1, 0.2]]).unwrap();
        let text = std::fs::read_to_string(&spath).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("k,p"));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&spath).unwrap();
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_series_rejected() {
        let dir = std::env::temp_dir();
        let _ = write_series(&dir.join("x.csv"), &["a", "b"], &[&[1.0], &[1.0, 2.0]]);
    }
}
