//! Template resolution for serve requests.
//!
//! A request names its template either by a builtin spec string (the same
//! grammar the CLI's positional source argument uses: `fig3`,
//! `edge:RxC[,k=K][,o=O]`, `cnn-small:RxC`, `cnn-large:RxC`) or carries
//! the graph inline as `.gfg` text (see [`gpuflow_graph::text`]). The
//! daemon never touches the filesystem on behalf of a client: file paths
//! are not accepted, which keeps a network-facing surface path-traversal
//! free by construction.

use gpuflow_graph::Graph;
use gpuflow_templates::{cnn, edge};

/// How a request identifies its template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateRef {
    /// A builtin template spec string (`fig3`, `edge:1000x1000,k=16,o=4`,
    /// `cnn-small:512x512`, `cnn-large:96x96`).
    Named(String),
    /// An inline graph in `.gfg` text form.
    Inline(String),
}

impl TemplateRef {
    /// Materialize the operator graph.
    pub fn resolve(&self) -> Result<Graph, String> {
        match self {
            TemplateRef::Named(spec) => resolve_named(spec),
            TemplateRef::Inline(text) => {
                let g = gpuflow_graph::parse_graph(text).map_err(|e| e.to_string())?;
                g.validate().map_err(|e| e.to_string())?;
                Ok(g)
            }
        }
    }
}

fn parse_dims(s: &str) -> Result<(usize, usize), String> {
    let mut it = s.splitn(2, 'x');
    let rows = it
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad dimensions '{s}'"))?;
    let cols = it
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad dimensions '{s}' (expected <rows>x<cols>)"))?;
    Ok((rows, cols))
}

/// A builtin template, parsed and checked: the grammar of a request's
/// named template and of the CLI's positional source alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// The paper's Fig. 3 / Fig. 6 example (`fig3`).
    Fig3,
    /// Edge detection (`edge:RxC[,k=K][,o=O]`).
    Edge {
        /// Image rows.
        rows: usize,
        /// Image cols.
        cols: usize,
        /// Kernel edge.
        k: usize,
        /// Orientations.
        orientations: usize,
    },
    /// The small CNN (`cnn-small:RxC`).
    SmallCnn {
        /// Input rows.
        rows: usize,
        /// Input cols.
        cols: usize,
    },
    /// The large CNN (`cnn-large:RxC`).
    LargeCnn {
        /// Input rows.
        rows: usize,
        /// Input cols.
        cols: usize,
    },
}

impl Builtin {
    /// Parse `spec`: `Ok(None)` if it names no builtin, an error if it
    /// names one with parameters that cannot build.
    pub fn parse(spec: &str) -> Result<Option<Builtin>, String> {
        if spec == "fig3" {
            return Ok(Some(Builtin::Fig3));
        }
        if let Some(rest) = spec.strip_prefix("edge:") {
            let mut parts = rest.split(',');
            let dims = parts.next().ok_or("edge: missing dimensions")?;
            let (rows, cols) = parse_dims(dims)?;
            let (mut k, mut orientations) = (16usize, 4usize);
            for p in parts {
                if let Some(v) = p.strip_prefix("k=") {
                    k = v.parse().map_err(|_| format!("bad kernel '{v}'"))?;
                } else if let Some(v) = p.strip_prefix("o=") {
                    orientations = v.parse().map_err(|_| format!("bad orientations '{v}'"))?;
                } else {
                    return Err(format!("unknown edge parameter '{p}'"));
                }
            }
            edge::check_params(rows, cols, k, orientations).map_err(|e| e.to_string())?;
            return Ok(Some(Builtin::Edge {
                rows,
                cols,
                k,
                orientations,
            }));
        }
        if let Some(rest) = spec.strip_prefix("cnn-small:") {
            let (rows, cols) = parse_dims(rest)?;
            cnn::check_input(rows, cols).map_err(|e| e.to_string())?;
            return Ok(Some(Builtin::SmallCnn { rows, cols }));
        }
        if let Some(rest) = spec.strip_prefix("cnn-large:") {
            let (rows, cols) = parse_dims(rest)?;
            cnn::check_input(rows, cols).map_err(|e| e.to_string())?;
            return Ok(Some(Builtin::LargeCnn { rows, cols }));
        }
        Ok(None)
    }

    /// Build the operator graph.
    pub fn build(self) -> Graph {
        match self {
            Builtin::Fig3 => gpuflow_core::examples::fig3_graph(),
            Builtin::Edge {
                rows,
                cols,
                k,
                orientations,
            } => edge::find_edges(rows, cols, k, orientations, edge::CombineOp::Max).graph,
            Builtin::SmallCnn { rows, cols } => cnn::small_cnn(rows, cols).graph,
            Builtin::LargeCnn { rows, cols } => cnn::large_cnn(rows, cols).graph,
        }
    }
}

/// The spec string [`Builtin::parse`] reads back as the same builtin
/// (`fig3`, `edge:96x96,k=5,o=4`, `cnn-small:512x512`): how documents name
/// the template.
impl std::fmt::Display for Builtin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Builtin::Fig3 => f.write_str("fig3"),
            Builtin::Edge {
                rows,
                cols,
                k,
                orientations,
            } => write!(f, "edge:{rows}x{cols},k={k},o={orientations}"),
            Builtin::SmallCnn { rows, cols } => write!(f, "cnn-small:{rows}x{cols}"),
            Builtin::LargeCnn { rows, cols } => write!(f, "cnn-large:{rows}x{cols}"),
        }
    }
}

/// Resolve a builtin template spec (the CLI source grammar minus file
/// paths).
pub fn resolve_named(spec: &str) -> Result<Graph, String> {
    Builtin::parse(spec)?.map(Builtin::build).ok_or_else(|| {
        format!(
            "unknown template '{spec}' (expected fig3, edge:RxC[,k=K][,o=O], cnn-small:RxC, cnn-large:RxC, or an inline graph)"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_templates_resolve() {
        assert!(resolve_named("fig3").is_ok());
        let g = resolve_named("edge:256x256,k=5,o=2").unwrap();
        assert_eq!(g.num_ops(), 3); // 2 convs + binary max at o=2
        assert!(resolve_named("cnn-small:64x64").is_ok());
        assert!(resolve_named("nope").is_err());
        assert!(resolve_named("edge:4x4,k=16").is_err());
        // File paths are rejected: the daemon never reads client paths.
        assert!(resolve_named("assets/fig3.gfg").is_err());
    }

    #[test]
    fn builtin_specs_round_trip_through_display() {
        for spec in [
            "fig3",
            "edge:96x96,k=5,o=4",
            "cnn-small:512x480",
            "cnn-large:48x64",
        ] {
            let b = Builtin::parse(spec).unwrap().unwrap();
            assert_eq!(b.to_string(), spec);
            assert_eq!(Builtin::parse(&b.to_string()).unwrap(), Some(b));
        }
        // Defaulted parameters come back spelled out.
        let b = Builtin::parse("edge:64x64").unwrap().unwrap();
        assert_eq!(b.to_string(), "edge:64x64,k=16,o=4");
        assert_eq!(Builtin::parse(&b.to_string()).unwrap(), Some(b));
    }

    #[test]
    fn inline_graphs_resolve_and_validate() {
        let text = "data In input 4 4\ndata Out output 4 4\nop t tanh In -> Out\n";
        let g = TemplateRef::Inline(text.to_string()).resolve().unwrap();
        assert_eq!(g.num_ops(), 1);
        assert!(TemplateRef::Inline("garbage".into()).resolve().is_err());
    }
}
