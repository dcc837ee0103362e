//! Regenerates Figure 3a (prefill roofline comparison).

fn main() {
    let params = litegpu_roofline::EngineParams::paper_defaults();
    let (fig, exp) = litegpu::experiments::fig3a(&params).expect("figure 3a generation");
    litegpu_bench::emit_fig3(&fig, &exp, "Figure 3a: prefill normalized tokens/s/SM");
}
