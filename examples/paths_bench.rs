//! Paths experiment: descendant-heavy XMark path queries evaluated with the
//! staircase-join name-index engine on vs. off (naive axis scans), across
//! several document scales. Writes the trajectory to `BENCH_paths.json`
//! (override with `--out <path>`) and prints the table.
//!
//! Run with: `cargo run --release --example paths_bench`
//! CI smoke:  `cargo run --release --example paths_bench -- --small --out target/BENCH_paths.ci.json`

fn main() {
    let mut out_path = String::from("BENCH_paths.json");
    let mut scales: Vec<usize> = vec![50_000, 200_000, 800_000];
    let mut iters = 5;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--small" => {
                scales = vec![20_000];
                iters = 2;
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    eprintln!("paths sweep: scales {scales:?} target bytes, best of {iters} runs per mode");
    let points = xqd_bench::paths_sweep(&scales, iters);

    println!(
        "{:>34} {:>10} {:>10} {:>10} {:>9} {:>6}",
        "query", "doc KB", "scan ns", "index ns", "speedup", "equal"
    );
    for p in &points {
        println!(
            "{:>34} {:>10.1} {:>10} {:>10} {:>8.2}x {:>6}",
            p.query,
            p.doc_bytes as f64 / 1024.0,
            p.scan_ns,
            p.indexed_ns,
            p.speedup(),
            p.results_identical,
        );
    }

    let json = xqd_bench::paths_json(&points);
    std::fs::write(&out_path, &json).expect("write BENCH_paths.json");
    eprintln!("trajectory written to {out_path}");
}
