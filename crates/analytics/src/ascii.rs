//! ASCII rendering of distributions: CDF/CCDF line charts and
//! horizontal bars for terminal output. Used by the examples and the
//! CLI so a figure can actually be *looked at* without plotting
//! dependencies.

use satwatch_simcore::stats::Cdf;
use std::fmt::Write as _;

/// Render a set of CDFs as a fixed-size ASCII chart. Each series gets
/// a marker character; x is linear between `x_min` and `x_max`.
pub fn cdf_chart(series: &[(char, &Cdf)], x_min: f64, x_max: f64, width: usize, height: usize) -> String {
    assert!(x_max > x_min && width >= 10 && height >= 4);
    let mut grid = vec![vec![' '; width]; height];
    for &(marker, cdf) in series {
        for (col, x) in (0..width).map(|c| (c, x_min + (x_max - x_min) * c as f64 / (width - 1) as f64)) {
            let p = cdf.at(x);
            // row 0 is the top (p = 1)
            let row = ((1.0 - p) * (height - 1) as f64).round() as usize;
            let row = row.min(height - 1);
            grid[row][col] = marker;
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = match i {
            0 => "1.0 ".to_string(),
            _ if i == height - 1 => "0.0 ".to_string(),
            _ if i == height / 2 => "0.5 ".to_string(),
            _ => "    ".to_string(),
        };
        let _ = writeln!(out, "{label}|{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "    +{}", "-".repeat(width));
    let _ = writeln!(out, "     {:<width$.3}{:>10.3}", x_min, x_max, width = width.saturating_sub(10));
    out
}

/// Render labelled horizontal bars scaled to the maximum value.
pub fn bars(rows: &[(String, f64)], width: usize) -> String {
    let max = rows.iter().map(|(_, v)| *v).fold(0.0f64, f64::max).max(1e-12);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in rows {
        let n = ((v / max) * width as f64).round() as usize;
        let _ = writeln!(out, "{label:<label_w$} |{} {v:.1}", "#".repeat(n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_has_expected_geometry() {
        let cdf = Cdf::from_values(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = cdf_chart(&[('*', &cdf)], 0.0, 6.0, 40, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 12, "10 rows + axis + labels");
        assert!(lines[0].starts_with("1.0 |"));
        assert!(lines[9].starts_with("0.0 |"));
        assert!(s.contains('*'));
        // monotone: first column of stars at the bottom, last near top
        let first_star_row = lines.iter().position(|l| l.contains('*')).unwrap();
        assert!(first_star_row < 3, "CDF reaches ~1 on the right side");
    }

    #[test]
    fn multiple_series_coexist() {
        let a = Cdf::from_values(vec![1.0, 1.5, 2.0]);
        let b = Cdf::from_values(vec![4.0, 4.5, 5.0]);
        let s = cdf_chart(&[('a', &a), ('b', &b)], 0.0, 6.0, 30, 8);
        assert!(s.contains('a') && s.contains('b'));
    }

    #[test]
    fn bars_scale_to_max() {
        let rows = vec![("Congo".to_string(), 100.0), ("Spain".to_string(), 50.0), ("empty".to_string(), 0.0)];
        let s = bars(&rows, 20);
        let lines: Vec<&str> = s.lines().collect();
        let count = |l: &str| l.chars().filter(|&c| c == '#').count();
        assert_eq!(count(lines[0]), 20);
        assert_eq!(count(lines[1]), 10);
        assert_eq!(count(lines[2]), 0);
    }

    #[test]
    #[should_panic]
    fn chart_rejects_degenerate_range() {
        let cdf = Cdf::from_values(vec![1.0]);
        cdf_chart(&[('x', &cdf)], 5.0, 5.0, 20, 5);
    }
}
