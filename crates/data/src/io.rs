//! Plain-text point I/O.
//!
//! Points are stored one per line as `x,y` with full `f64` round-trip
//! precision — enough to export generated data sets for external plotting
//! and to load user-provided POI files in place of the synthetic cities.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

use rnnhm_geom::Point;

/// Writes points as CSV (`x,y` per line).
pub fn write_points<W: Write>(w: W, points: &[Point]) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    for p in points {
        // `{:?}` on f64 prints the shortest representation that
        // round-trips exactly.
        writeln!(w, "{:?},{:?}", p.x, p.y)?;
    }
    w.flush()
}

/// Reads points from CSV (`x,y` per line; blank lines and `#` comments
/// skipped).
///
/// Each data line must carry *exactly* two fields, and both must parse
/// to **finite** `f64`s: `NaN`/`inf` tokens parse as valid floats but
/// would silently corrupt kd-tree ordering and scanline span math
/// downstream (in release builds `Point::new` only debug-asserts
/// finiteness), and a trailing third field almost always means the file
/// is not in the `x,y` format this reader expects. Both are rejected
/// with a line-numbered [`io::ErrorKind::InvalidData`] error.
pub fn read_points<R: Read>(r: R) -> io::Result<Vec<Point>> {
    let reader = BufReader::new(r);
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut parts = trimmed.split(',');
        let parse = |s: Option<&str>| -> io::Result<f64> {
            let field = s
                .map(str::trim)
                .ok_or_else(|| bad(format!("line {}: missing field", lineno + 1)))?;
            let v = field.parse::<f64>().map_err(|e| bad(format!("line {}: {e}", lineno + 1)))?;
            if !v.is_finite() {
                return Err(bad(format!("line {}: non-finite coordinate {field:?}", lineno + 1)));
            }
            Ok(v)
        };
        let x = parse(parts.next())?;
        let y = parse(parts.next())?;
        if parts.next().is_some() {
            return Err(bad(format!(
                "line {}: expected exactly two fields (`x,y`), found more",
                lineno + 1
            )));
        }
        out.push(Point::new(x, y));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact() {
        let pts = vec![
            Point::new(0.1, -0.2),
            Point::new(1e-300, 1e300),
            Point::new(-74.0059731, 40.7143528),
            Point::new(std::f64::consts::PI, std::f64::consts::E),
        ];
        let mut buf = Vec::new();
        write_points(&mut buf, &pts).unwrap();
        let back = read_points(&buf[..]).unwrap();
        assert_eq!(pts, back, "bit-exact round trip");
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n1.0,2.0\n\n  # another\n3.5 , 4.5\n";
        let pts = read_points(text.as_bytes()).unwrap();
        assert_eq!(pts, vec![Point::new(1.0, 2.0), Point::new(3.5, 4.5)]);
    }

    #[test]
    fn malformed_input_errors() {
        assert!(read_points("1.0".as_bytes()).is_err());
        assert!(read_points("a,b".as_bytes()).is_err());
    }

    fn invalid_data_message(text: &str) -> String {
        let err = read_points(text.as_bytes()).expect_err("must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn non_finite_coordinates_are_rejected_with_line_numbers() {
        // `NaN` / `inf` / `-inf` all parse as f64 but must not load.
        for token in ["NaN", "nan", "inf", "-inf", "infinity"] {
            let msg = invalid_data_message(&format!("1.0,2.0\n{token},3.0\n"));
            assert!(msg.contains("line 2"), "{token}: {msg}");
            assert!(msg.contains("non-finite"), "{token}: {msg}");
        }
        let msg = invalid_data_message("# header\n\n0.5,inf\n");
        assert!(msg.contains("line 3"), "y field, after skipped lines: {msg}");
    }

    #[test]
    fn trailing_fields_are_rejected_with_line_numbers() {
        let msg = invalid_data_message("1.0,2.0,junk\n");
        assert!(msg.contains("line 1") && msg.contains("two fields"), "{msg}");
        // Even a well-formed numeric third field is an arity error.
        let msg = invalid_data_message("1.0,2.0\n3.0,4.0,5.0\n");
        assert!(msg.contains("line 2"), "{msg}");
        // A trailing comma produces an (empty) third field: rejected.
        assert!(read_points("1.0,2.0,\n".as_bytes()).is_err());
        // Internal whitespace around exactly two fields stays fine.
        let pts = read_points(" 1.0 , 2.0 \n".as_bytes()).unwrap();
        assert_eq!(pts, vec![Point::new(1.0, 2.0)]);
    }
}
