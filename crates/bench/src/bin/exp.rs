//! `exp <ID> [--smoke] [--cores LIST] [--seed N]`: run one experiment of
//! the registry (EXPERIMENTS.md lists them). See `reconfig_bench::driver`.

fn main() {
    reconfig_bench::driver::main()
}
