//! Regenerates Figure 3b (decode roofline comparison).

fn main() {
    let params = litegpu_roofline::EngineParams::paper_defaults();
    let (fig, exp) = litegpu::experiments::fig3b(&params).expect("figure 3b generation");
    litegpu_bench::emit_fig3(&fig, &exp, "Figure 3b: decode normalized tokens/s/SM");
}
