//! Regenerates Figure 3b (decode roofline comparison).
use litegpu_roofline::EngineParams;

fn main() {
    let params = EngineParams::paper_defaults();
    let (fig, exp) = litegpu::experiments::fig3b(&params).expect("figure 3b generation");
    let series: Vec<(String, Vec<f64>)> = fig
        .gpu_types
        .iter()
        .map(|g| {
            (
                g.clone(),
                fig.models
                    .iter()
                    .map(|m| fig.point(m, g).map(|p| p.normalized).unwrap_or(0.0))
                    .collect(),
            )
        })
        .collect();
    let svg = litegpu_plot::svg::grouped_bar_svg(
        "Figure 3b: decode normalized tokens/s/SM",
        &fig.models,
        &series,
    )
    .unwrap_or_default();
    litegpu_bench::emit(
        &exp,
        &[
            ("fig3b.json".into(), litegpu_bench::to_json(&fig)),
            ("fig3b.svg".into(), svg),
        ],
    );
}
