//! `stlab` — the command-line face of the laboratory.
//!
//! ```text
//! stlab generate <yes-multiset|no-multiset|yes-checksort|random> <m> <n> [seed]
//! stlab solve <multiset|set|checksort|disjoint> <fingerprint|sort|nst|stream> <word>
//! stlab fool <m> <n> [seed]          # run the Lemma 21 adversary
//! stlab xpath <word>                 # Figure 1 on the instance's document
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_lab::algo::{fingerprint, nst, sortcheck};
use st_lab::problems::{generate, Instance};
use st_lab::trace::Tracer;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("fool") => cmd_fool(&args[1..]),
        Some("xpath") => cmd_xpath(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  stlab generate <yes-multiset|no-multiset|yes-checksort|random> <m> <n> [seed]\n  \
                 stlab solve <multiset|set|checksort|disjoint> <fingerprint|sort|nst|stream> <word>\n  \
                 stlab fool <m> <n> [seed]\n  stlab xpath <word>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn parse_num(args: &[String], i: usize, what: &str) -> Result<usize, String> {
    args.get(i)
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what}"))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let kind = args.first().ok_or("missing kind")?;
    let m = parse_num(args, 1, "m")?;
    let n = parse_num(args, 2, "n")?;
    let seed = args
        .get(3)
        .map_or(Ok(0u64), |s| s.parse().map_err(|_| "bad seed".to_string()))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = match kind.as_str() {
        "yes-multiset" => generate::yes_multiset(m, n, &mut rng),
        "no-multiset" => generate::no_multiset_one_bit(m, n, &mut rng),
        "yes-checksort" => generate::yes_checksort(m, n, &mut rng),
        "random" => generate::random_instance(m, n, &mut rng),
        other => return Err(format!("unknown kind {other:?}")),
    };
    println!("{}", inst.encode());
    Ok(())
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let problem = args.first().ok_or("missing problem")?.clone();
    let algo = args.get(1).ok_or("missing algorithm")?.clone();
    let word = args.get(2).ok_or("missing instance word")?;
    let inst = Instance::parse(word).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let (verdict, usage) = match (problem.as_str(), algo.as_str()) {
        ("multiset", "fingerprint") => {
            let r = fingerprint::decide_multiset_equality(&inst, &mut rng)
                .map_err(|e| e.to_string())?;
            (r.accepted, r.usage)
        }
        ("multiset", "sort") => {
            let r = sortcheck::decide_multiset_equality(&inst).map_err(|e| e.to_string())?;
            (r.accepted, r.usage)
        }
        ("multiset", "nst") => {
            let acc = nst::exists_certificate(&inst, false, &Tracer::disabled())
                .map_err(|e| e.to_string())?;
            let id: Vec<usize> = (0..inst.m()).collect();
            let r = nst::verify_multiset_certificate(&inst, &id, false, &Tracer::disabled())
                .map_err(|e| e.to_string())?;
            (acc, r.usage)
        }
        ("set", "sort") => {
            let r = sortcheck::decide_set_equality(&inst).map_err(|e| e.to_string())?;
            (r.accepted, r.usage)
        }
        ("set", "stream") => {
            let (v, u) = st_lab::query::stream::streaming_set_equality(&inst, &Tracer::disabled())
                .map_err(|e| e.to_string())?;
            (v, u)
        }
        ("checksort", "sort") => {
            let r = sortcheck::decide_check_sort(&inst).map_err(|e| e.to_string())?;
            (r.accepted, r.usage)
        }
        ("disjoint", "sort") => {
            let (v, u) = st_lab::algo::disjoint::decide_disjoint_det(&inst, &Tracer::disabled())
                .map_err(|e| e.to_string())?;
            (v, u)
        }
        (p, a) => return Err(format!("unsupported problem/algorithm pair {p}/{a}")),
    };
    println!("verdict: {verdict}");
    println!("usage:   {usage}");
    Ok(())
}

fn cmd_fool(args: &[String]) -> Result<(), String> {
    use st_lab::lm::adversary::{find_fooling_input, WordFamily};
    use st_lab::lm::library::one_scan_matcher;
    use st_lab::problems::perm::phi;
    let m = parse_num(args, 0, "m")?;
    let n = parse_num(args, 1, "n")? as u32;
    let seed = args
        .get(2)
        .map_or(Ok(0u64), |s| s.parse().map_err(|_| "bad seed".to_string()))?;
    let fam = WordFamily::new(m, n).map_err(|e| e.to_string())?;
    let nlm = one_scan_matcher(m, phi(m));
    let mut rng = StdRng::seed_from_u64(seed);
    let res = find_fooling_input(&nlm, &fam, &mut rng, 24, &Tracer::disabled())
        .map_err(|e| e.to_string())?;
    println!("uncompared i0 = {}", res.i0);
    println!("fooling input u = {:?}", res.u);
    println!("u is a yes-instance: {}", fam.holds(&res.u));
    println!("machine accepts u:   {}", res.run_u.accepted());
    Ok(())
}

fn cmd_xpath(args: &[String]) -> Result<(), String> {
    use st_lab::query::xml::{instance_document, parse};
    use st_lab::query::xpath::{figure1_query, DocContext};
    let word = args.first().ok_or("missing instance word")?;
    let inst = Instance::parse(word).map_err(|e| e.to_string())?;
    let doc = parse(&instance_document(&inst)).map_err(|e| e.to_string())?;
    let ctx = DocContext::new(&doc);
    let selected = ctx.select(&figure1_query());
    println!("selected {} item(s):", selected.len());
    for s in selected {
        println!("  {}", s.string_value());
    }
    Ok(())
}
