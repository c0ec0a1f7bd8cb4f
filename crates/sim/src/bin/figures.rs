//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! figures [--fig 4|5|6a|6b|7|8|multipath|ablation|writes|scale|consistency|hotspots|hedera|topology|timeline|all] [--quick] [--seed N] [--json DIR]
//! ```
//!
//! Prints each figure's rows as a text table; with `--json DIR`, also
//! writes the structured data as `figN.json` for plotting. A bad
//! argument, including an unknown figure name, exits with status 2.

use std::io::Write as _;

use mayflower_sim::figures::{self, Effort};
use mayflower_sim::report;

const USAGE: &str = "usage: figures [--fig 4|5|6a|6b|7|8|multipath|ablation|writes|scale|consistency|hotspots|hedera|topology|timeline|all] [--quick] [--seed N] [--json DIR]";

struct Args {
    fig: String,
    effort: Effort,
    seed: u64,
    json_dir: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        fig: "all".to_string(),
        effort: Effort::Full,
        seed: 0x4D41_5946,
        json_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--fig" => args.fig = value(),
            "--quick" => args.effort = Effort::Quick,
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage_error("seed must be an integer"))
            }
            "--json" => args.json_dir = Some(value()),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    args
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn maybe_write_json(dir: &Option<String>, name: &str, value: &impl serde::Serialize) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/{name}.json");
        let mut f = std::fs::File::create(&path).expect("create json file");
        let body = serde_json::to_string_pretty(value).expect("serialize figure");
        f.write_all(body.as_bytes()).expect("write json");
        eprintln!("wrote {path}");
    }
}

fn main() {
    let args = parse_args();
    let mut known = false;
    let mut want = |k: &str| {
        let hit = args.fig == "all" || args.fig == k;
        known |= hit;
        hit
    };

    if want("4") {
        let fig = figures::figure4(args.effort, args.seed);
        println!("{}", report::render_figure4(&fig));
        maybe_write_json(&args.json_dir, "fig4", &fig);
    }
    if want("5") {
        let fig = figures::figure5(args.effort, args.seed);
        println!("{}", report::render_figure5(&fig));
        maybe_write_json(&args.json_dir, "fig5", &fig);
    }
    if want("6a") {
        let fig = figures::figure6('a', args.effort, args.seed);
        println!("{}", report::render_figure6(&fig));
        maybe_write_json(&args.json_dir, "fig6a", &fig);
    }
    if want("6b") {
        let fig = figures::figure6('b', args.effort, args.seed);
        println!("{}", report::render_figure6(&fig));
        maybe_write_json(&args.json_dir, "fig6b", &fig);
    }
    if want("7") {
        let fig = figures::figure7(args.effort, args.seed);
        println!("{}", report::render_figure7(&fig));
        maybe_write_json(&args.json_dir, "fig7", &fig);
    }
    if want("8") {
        let (files, jobs) = match args.effort {
            Effort::Quick => (40, 120),
            Effort::Full => (150, 400),
        };
        let scratch = std::env::temp_dir().join("mayflower-fig8");
        let fig =
            mayflower_sim::proto::figure8(&[0.06, 0.07, 0.08], files, jobs, args.seed, &scratch);
        println!("{}", mayflower_sim::proto::render_figure8(&fig));
        maybe_write_json(&args.json_dir, "fig8", &fig);
    }
    if want("topology") {
        let cmp = mayflower_sim::topologies::topology_comparison(args.effort, args.seed);
        println!("{}", mayflower_sim::topologies::render_topologies(&cmp));
        maybe_write_json(&args.json_dir, "topology", &cmp);
    }
    if want("hedera") {
        let cmp = figures::hedera_comparison(args.effort, args.seed);
        println!("{}", report::render_hedera(&cmp));
        maybe_write_json(&args.json_dir, "hedera", &cmp);
    }
    if want("hotspots") {
        let report = mayflower_sim::hotspots::hotspot_report(args.effort, args.seed);
        println!("{}", mayflower_sim::hotspots::render_hotspots(&report));
        maybe_write_json(&args.json_dir, "hotspots", &report);
    }
    if want("consistency") {
        let exp = mayflower_sim::consistency::consistency_experiment(args.effort, args.seed);
        println!("{}", mayflower_sim::consistency::render_consistency(&exp));
        maybe_write_json(&args.json_dir, "consistency", &exp);
    }
    if want("scale") {
        let exp = mayflower_sim::scale::scale_experiment(args.effort, args.seed);
        println!("{}", mayflower_sim::scale::render_scale(&exp));
        maybe_write_json(&args.json_dir, "scale", &exp);
    }
    if want("writes") {
        let exp = mayflower_sim::writes::write_placement_experiment(args.effort, args.seed);
        println!("{}", mayflower_sim::writes::render_writes(&exp));
        maybe_write_json(&args.json_dir, "writes", &exp);
    }
    if want("ablation") {
        let abl = mayflower_sim::ablation::ablation(args.effort, args.seed);
        println!("{}", mayflower_sim::ablation::render_ablation(&abl));
        maybe_write_json(&args.json_dir, "ablation", &abl);
    }
    if want("multipath") {
        let abl = figures::multipath_ablation(args.effort, args.seed);
        println!("{}", report::render_multipath(&abl));
        maybe_write_json(&args.json_dir, "multipath", &abl);
    }
    if want("timeline") {
        let rep = mayflower_sim::timeline::timeline(args.seed);
        println!("{}", report::render_timeline(&rep));
        maybe_write_json(&args.json_dir, "timeline", &rep);
    }
    if !known {
        usage_error(&format!("unknown figure: {}", args.fig));
    }
}
