//! One module per paper artifact, each producing an [`Artifact`].

pub mod abandonment_ext;
pub mod bottleneck;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod regime;
pub mod robustness;
pub mod streaming;
pub mod sweep;
pub mod table1;

use crate::dataset::Dataset;

/// A qualitative claim the paper makes about an artifact, evaluated here.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// What is being checked (e.g. "SelectMail steeper than Search").
    pub name: String,
    /// Whether this run's measurement satisfies the claim.
    pub pass: bool,
    /// The measured values behind the verdict.
    pub detail: String,
}

impl ShapeCheck {
    /// Build a check from a named condition.
    pub fn new(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> ShapeCheck {
        ShapeCheck {
            name: name.into(),
            pass,
            detail: detail.into(),
        }
    }
}

/// A regenerated table or figure.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Identifier matching the paper ("fig4", "table1", ...).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The rendered text block (what the binary prints).
    pub rendered: String,
    /// Named CSV payloads for plotting, `(file stem, contents)`.
    pub csv: Vec<(String, String)>,
    /// The paper's qualitative claims, evaluated on this run.
    pub checks: Vec<ShapeCheck>,
}

impl Artifact {
    /// Whether every shape check passed.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Render the check list as text.
    pub fn render_checks(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            out.push_str(&format!(
                "  [{}] {} ({})\n",
                if c.pass { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            ));
        }
        out
    }
}

/// Every artifact generator, in paper order.
pub fn all(data: &Dataset) -> Vec<Artifact> {
    vec![
        fig1::generate(data),
        fig2::generate(data),
        fig3::generate(data),
        table1::generate(),
        fig4::generate(data),
        fig5::generate(data),
        fig6::generate(data),
        fig7::generate(data),
        fig8::generate(data),
        fig9::generate(data),
        bottleneck::generate(data),
    ]
}

/// Generate one artifact by id, if known.
pub fn by_id(data: &Dataset, id: &str) -> Option<Artifact> {
    match id {
        "fig1" => Some(fig1::generate(data)),
        "fig2" => Some(fig2::generate(data)),
        "fig3" => Some(fig3::generate(data)),
        "table1" => Some(table1::generate()),
        "fig4" => Some(fig4::generate(data)),
        "fig5" => Some(fig5::generate(data)),
        "fig6" => Some(fig6::generate(data)),
        "fig7" => Some(fig7::generate(data)),
        "fig8" => Some(fig8::generate(data)),
        "fig9" => Some(fig9::generate(data)),
        "bottleneck" => Some(bottleneck::generate(data)),
        // Extension artifacts, not in `ids()`/`all`: they regenerate
        // datasets of their own (ignoring `data`). Run explicitly via
        // `autosens-experiments sweep` / `abandonment-ext`.
        "sweep" => Some(sweep::generate_sweep()),
        "abandonment-ext" => Some(abandonment_ext::generate_abandonment()),
        "robustness" => Some(robustness::generate_robustness()),
        "streaming" => Some(streaming::generate_streaming()),
        "regime" => Some(regime::generate_regime()),
        _ => None,
    }
}

/// All known artifact ids, in paper order.
pub fn ids() -> &'static [&'static str] {
    &[
        "fig1",
        "fig2",
        "fig3",
        "table1",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "bottleneck",
    ]
}
