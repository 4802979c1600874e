//! Fig. 7 — DRAM timing model validation: a pointer chase through
//! increasing array sizes exposes the L1 load-to-load latency and the
//! off-chip latency; sweeping the simulated DRAM latency moves only the
//! off-chip plateau, exactly as in the paper.

use strober::{StroberConfig, StroberFlow};
use strober_bench::MEM_BYTES;
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_isa::{assemble, programs};

fn chase(flow: &StroberFlow, list_bytes: u32, dram_latency: u64) -> f64 {
    let hops = 2048;
    // Stride of one cache block so every hop leaves the current line.
    let src = programs::pointer_chase(list_bytes / 4, 4, hops);
    let image = assemble(&src).expect("chase assembles");
    let mut dram = DramModel::new(
        DramConfig {
            cas_latency_cycles: dram_latency,
            ..DramConfig::default()
        },
        MEM_BYTES,
    );
    dram.load(&image.words, 0);
    flow.run(&mut dram, 200_000_000).expect("run");
    let exit = dram.exit_code().expect("chase did not finish");
    f64::from(exit) / f64::from(hops)
}

fn main() {
    let design = build_core(&CoreConfig::rok());
    // One session serves the whole sweep: the DRAM latency is the host
    // model's, not the target's.
    let flow = StroberFlow::new(&design, StroberConfig::default()).expect("session");
    let latencies = [50u64, 100, 200];
    let sizes_kib = [0.25f64, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

    println!("Fig. 7: pointer-chase load-to-load latency (cycles/load) on Rok");
    println!("(16 KiB D$; the off-chip plateau tracks the simulated DRAM latency)");
    print!("{:>10}", "size KiB");
    for l in latencies {
        print!("  lat={l:>4}");
    }
    println!();
    for s in sizes_kib {
        let bytes = (s * 1024.0) as u32;
        print!("{s:>10.2}");
        for l in latencies {
            let cyc = chase(&flow, bytes, l);
            print!("  {cyc:>8.1}");
        }
        println!();
    }
    println!();
    println!("Expected shape: flat L1-hit latency while the list fits in the");
    println!("16 KiB D$, then a plateau at roughly the DRAM latency beyond it.");
}
