//! Which paper cells page. The paper's applications are out of core:
//! their data outgrow memory, so dirty pages swap out, and that is the
//! traffic NWCache stages on the ring. `MachineConfig::scaled_paper`
//! shrinks memory linearly with the scale, but FFT rounds its size
//! down to a power of two and MG scales each dimension by a cube root,
//! so at some scales an app fits in memory and never swaps. A test
//! that runs such a cell exercises no swap-out path.
//!
//! The tables pin, for the standard machine under naive prefetching,
//! whether each app swaps out at the scales the tests and CI use. The
//! rows at 0.25 and 1.0 are slow in a debug build; run them with
//!
//! ```text
//! cargo test --release -p nw-integration --test paging -- --ignored
//! ```

use nw_apps::AppId;
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode};
use nwcache::sweep::run_grid;

/// `(app, scale, pages)`: whether the cell swaps any page out.
type Row = (AppId, f64, bool);

/// The scales most tier-1 files run at. FFT and MG are in core at 0.05.
const TIER1: [Row; 14] = [
    (AppId::Em3d, 0.05, true),
    (AppId::Fft, 0.05, false),
    (AppId::Gauss, 0.05, true),
    (AppId::Lu, 0.05, true),
    (AppId::Mg, 0.05, false),
    (AppId::Radix, 0.05, true),
    (AppId::Sor, 0.05, true),
    (AppId::Em3d, 0.1, true),
    (AppId::Fft, 0.1, true),
    (AppId::Gauss, 0.1, true),
    (AppId::Lu, 0.1, true),
    (AppId::Mg, 0.1, true),
    (AppId::Radix, 0.1, true),
    (AppId::Sor, 0.1, true),
];

/// Every app pages at the larger scales CI and the recorded outputs use.
const FULL: [Row; 14] = [
    (AppId::Em3d, 0.25, true),
    (AppId::Fft, 0.25, true),
    (AppId::Gauss, 0.25, true),
    (AppId::Lu, 0.25, true),
    (AppId::Mg, 0.25, true),
    (AppId::Radix, 0.25, true),
    (AppId::Sor, 0.25, true),
    (AppId::Em3d, 1.0, true),
    (AppId::Fft, 1.0, true),
    (AppId::Gauss, 1.0, true),
    (AppId::Lu, 1.0, true),
    (AppId::Mg, 1.0, true),
    (AppId::Radix, 1.0, true),
    (AppId::Sor, 1.0, true),
];

/// Run every row's cell and fail on each whose paging differs.
fn check(rows: &[Row]) {
    let grid = rows
        .iter()
        .map(|&(app, scale, _)| {
            (MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, scale), app)
        })
        .collect();
    let wrong: Vec<String> = rows
        .iter()
        .zip(run_grid(2, grid))
        .filter_map(|(&(app, scale, pages), run)| {
            let swap_outs = run.expect("cell runs").swap_outs;
            (pages != (swap_outs > 0))
                .then(|| format!("{app:?} at {scale}: {swap_outs} swap-outs, expected paging {pages}"))
        })
        .collect();
    assert!(wrong.is_empty(), "{wrong:#?}");
}

#[test]
fn which_cells_page_at_the_tier1_scales() {
    check(&TIER1);
}

#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn every_cell_pages_at_quarter_and_full_scale() {
    check(&FULL);
}
