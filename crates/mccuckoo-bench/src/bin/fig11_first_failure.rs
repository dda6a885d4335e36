//! Fig. 11 — load ratio at the first insertion failure, as a function of
//! maxloop ∈ {50, 100, 200, 300, 400, 500}.
//!
//! Expected shape: all schemes reach higher failure-free load with a
//! larger budget; the multi-copy schemes reach any given load with a
//! smaller maxloop than their single-copy counterparts, and the blocked
//! schemes sit far above the single-slot ones.
//!
//! A second sweep varies the kick policy (random-walk | bfs | bubble |
//! min-counter) on the multi-copy schemes at the same budgets, emitting
//! `results/fig11_kick_policies.csv` in long form
//! (`maxloop,scheme,policy,load`). Expected shape: the plan-first
//! policies (BFS especially) push the first failure to a strictly higher
//! load than the random walk at equal budget, because they search the
//! eviction *tree* where the walk samples one path. MinCounter is the
//! walk with a cold-bucket victim choice, not a planned policy.

use mccuckoo_bench::harness::{first_failure_load, mean, Config};
use mccuckoo_bench::report::{f4, pct4, write_csv, Table};
use mccuckoo_bench::{AnyTable, Scheme};
use mccuckoo_core::KickPolicyKind;

fn main() {
    let cfg = Config::from_env();
    let maxloops = [50u32, 100, 200, 300, 400, 500];
    let mut table = Table::new(
        "Fig. 11: load ratio at first insertion failure vs maxloop",
        &["maxloop", "Cuckoo", "McCuckoo", "BCHT", "B-McCuckoo"],
    );
    for &ml in &maxloops {
        let mut cells = vec![ml.to_string()];
        for scheme in Scheme::ALL {
            let load = mean((0..cfg.runs).map(|r| {
                let mut t = AnyTable::build(scheme, cfg.cap, 50 + r, ml, false);
                first_failure_load(&mut t, 60 + r)
            }));
            cells.push(pct4(load));
        }
        table.row(cells);
    }
    table.print();
    write_csv("fig11_first_failure", &table);

    // Kick-policy sweep on the multi-copy schemes, long form so the
    // bench gate (and plotting scripts) can filter rows directly.
    let mut policies = Table::new(
        "Fig. 11 (kick policies): first-failure load per policy",
        &["maxloop", "scheme", "policy", "load"],
    );
    for &ml in &maxloops {
        for scheme in [Scheme::McCuckoo, Scheme::BMcCuckoo] {
            for kick in KickPolicyKind::ALL {
                let load = mean((0..cfg.runs).map(|r| {
                    let mut t =
                        AnyTable::build_with_policy(scheme, cfg.cap, 50 + r, ml, false, kick);
                    first_failure_load(&mut t, 60 + r)
                }));
                policies.row(vec![
                    ml.to_string(),
                    scheme.label().to_string(),
                    kick.label().to_string(),
                    f4(load),
                ]);
            }
        }
    }
    policies.print();
    write_csv("fig11_kick_policies", &policies);
}
