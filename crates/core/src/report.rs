//! Plain-text rendering of experiment results, in the layout of the
//! paper's tables and figures.

use crate::experiments::{BreakdownBar, PairedRow};

/// Render a standard-vs-NWCache table (Tables 3/4/5/6/8). `unit`
/// divides the values (e.g. `1e6` prints Mpcycles).
pub fn render_paired(title: &str, rows: &[PairedRow], unit: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!("{:<10} {:>14} {:>14}\n", "app", "standard", "nwcache"));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>14.2} {:>14.2}\n",
            r.app,
            r.standard / unit,
            r.nwcache / unit
        ));
    }
    out
}

/// Render Table 7 (hit rates under both prefetching modes).
pub fn render_hit_rates(rows: &[(String, f64, f64)]) -> String {
    let mut out = String::new();
    out.push_str("Table 7. NWCache hit rates (%) under naive / optimal prefetching\n");
    out.push_str(&format!("{:<10} {:>10} {:>10}\n", "app", "naive", "optimal"));
    for (app, naive, optimal) in rows {
        out.push_str(&format!("{app:<10} {naive:>10.1} {optimal:>10.1}\n"));
    }
    out
}

/// Render a Figure 3/4-style normalized breakdown listing.
pub fn render_breakdown(title: &str, bars: &[BreakdownBar]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<10} {:<9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "app", "machine", "NoFree", "Transit", "Fault", "TLB", "Other", "Total"
    ));
    for b in bars {
        let total: f64 = b.parts.iter().sum();
        out.push_str(&format!(
            "{:<10} {:<9} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}\n",
            b.app, b.machine, b.parts[0], b.parts[1], b.parts[2], b.parts[3], b.parts[4], total
        ));
    }
    out
}

/// Render Figure 3/4 breakdowns as ASCII stacked bars, normalized so
/// the widest (standard) bar spans `width` characters. Category
/// glyphs: `N` NoFree, `T` Transit, `F` Fault, `L` TLB, `.` Other.
pub fn render_breakdown_bars(title: &str, bars: &[BreakdownBar], width: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{title}
(N = NoFree, T = Transit, F = Fault, L = TLB, . = Other)
"
    ));
    for b in bars {
        let glyphs = ['N', 'T', 'F', 'L', '.'];
        let mut bar = String::new();
        for (part, glyph) in b.parts.iter().zip(glyphs) {
            let chars = (part * width as f64).round() as usize;
            bar.extend(std::iter::repeat_n(glyph, chars));
        }
        out.push_str(&format!(
            "{:<8} {:<9} |{bar}
",
            b.app, b.machine
        ));
    }
    out
}

/// Render a parameter sweep as two columns.
pub fn render_sweep<T: std::fmt::Display>(title: &str, xlabel: &str, rows: &[(T, u64)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!("{:<12} {:>16}\n", xlabel, "exec (pcycles)"));
    for (x, t) in rows {
        out.push_str(&format!("{x:<12} {t:>16}\n"));
    }
    out
}

/// Render the fault-injection grid: execution time on both machines
/// per fault mix, plus the NWCache recovery counters. A run that
/// ended in an error (retries exhausted, protocol violation) prints
/// the error text in place of a time.
pub fn render_fault_table(title: &str, rows: &[crate::experiments::FaultRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:>10} {:>8} {:>14} {:>14} {:>8} {:>9} {:>8}\n",
        "err-rate", "dead-ch", "standard", "nwcache", "lost", "degraded", "retries"
    ));
    let cell = |r: &Result<u64, String>| match r {
        Ok(t) => format!("{:.2}", *t as f64 / 1e6),
        Err(e) => format!("FAIL({e})"),
    };
    for r in rows {
        out.push_str(&format!(
            "{:>10.0e} {:>8} {:>14} {:>14} {:>8} {:>9} {:>8}\n",
            r.disk_error_rate,
            r.failed_channels,
            cell(&r.standard),
            cell(&r.nwcache),
            r.ring_pages_lost,
            r.degraded_ring_swaps,
            r.retries,
        ));
    }
    out.push_str("(times in Mpcycles; lost/degraded/retries are NWCache recovery counters)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_table_renders_all_rows() {
        let rows = vec![
            PairedRow {
                app: "sor".into(),
                standard: 2_000_000.0,
                nwcache: 100_000.0,
            },
            PairedRow {
                app: "fft".into(),
                standard: 3_000_000.0,
                nwcache: 200_000.0,
            },
        ];
        let s = render_paired("Table 3", &rows, 1e6);
        assert!(s.contains("sor"));
        assert!(s.contains("fft"));
        assert!(s.contains("2.00"));
        assert!(s.contains("0.10"));
    }

    #[test]
    fn hit_rate_table_renders() {
        let rows = vec![("gauss".to_string(), 49.9, 58.3)];
        let s = render_hit_rates(&rows);
        assert!(s.contains("gauss"));
        assert!(s.contains("49.9"));
        assert!(s.contains("58.3"));
    }

    #[test]
    fn breakdown_totals_visible() {
        let bars = vec![BreakdownBar {
            app: "mg".into(),
            machine: "standard".into(),
            parts: [0.2, 0.1, 0.3, 0.1, 0.3],
        }];
        let s = render_breakdown("Fig 3", &bars);
        assert!(s.contains("mg"));
        assert!(s.contains("1.000")); // total column
    }

    #[test]
    fn ascii_bars_scale_with_parts() {
        let bars = vec![
            BreakdownBar {
                app: "sor".into(),
                machine: "standard".into(),
                parts: [0.5, 0.0, 0.25, 0.0, 0.25],
            },
            BreakdownBar {
                app: "sor".into(),
                machine: "nwcache".into(),
                parts: [0.0, 0.0, 0.1, 0.0, 0.15],
            },
        ];
        let s = render_breakdown_bars("Fig", &bars, 40);
        let lines: Vec<&str> = s.lines().collect();
        // Standard bar: 20 Ns + 10 Fs + 10 dots.
        assert!(lines[2].contains(&"N".repeat(20)));
        assert!(lines[2].contains(&"F".repeat(10)));
        // NWCache bar is much shorter.
        let std_len = lines[2].split('|').nth(1).unwrap().len();
        let nwc_len = lines[3].split('|').nth(1).unwrap().len();
        assert!(nwc_len * 2 < std_len);
    }

    #[test]
    fn sweep_renders() {
        let s = render_sweep("minfree", "frames", &[(2u32, 100), (4, 90)]);
        assert!(s.contains("frames"));
        assert!(s.contains("90"));
    }
}
