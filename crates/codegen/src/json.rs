//! JSON plan documents.
//!
//! A machine-readable rendering of an execution plan — the input format
//! for the "simple run-time library to orchestrate execution" alternative
//! the paper describes at the end of §3.3. Serialized with
//! `gpuflow-minijson`; the document shape is stable:
//!
//! ```json
//! {
//!   "template": "...",
//!   "data": [ { "name": "...", "rows": 1, "cols": 1, "kind": "input", "bytes": 4 } ],
//!   "units": [ ["op", "names"] ],
//!   "steps": [ { "op": "copy_in", "data": 0 }, { "op": "launch", "unit": 0 } ],
//!   "total_transfer_floats": 0,
//!   "peak_bytes": 0
//! }
//! ```

use gpuflow_core::{ExecutionPlan, Step};
use gpuflow_graph::{DataKind, Graph};
use gpuflow_minijson::{Map, Value};

use crate::EmitError;

/// One data structure in the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataDoc {
    /// Name from the graph.
    pub name: String,
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// `"input" | "output" | "constant" | "temporary"`.
    pub kind: String,
    /// Size in bytes.
    pub bytes: u64,
}

/// One plan step in the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepDoc {
    /// Host→device copy of data index `data`.
    CopyIn {
        /// Data index.
        data: usize,
    },
    /// Device→host copy.
    CopyOut {
        /// Data index.
        data: usize,
    },
    /// Free a device buffer.
    Free {
        /// Data index.
        data: usize,
    },
    /// Launch offload unit `unit`.
    Launch {
        /// Unit index.
        unit: usize,
    },
}

/// A complete serializable plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDoc {
    /// Template name.
    pub template: String,
    /// All data structures, indexed by position.
    pub data: Vec<DataDoc>,
    /// Offload units as lists of operator names.
    pub units: Vec<Vec<String>>,
    /// The step sequence.
    pub steps: Vec<StepDoc>,
    /// Total floats moved host↔device.
    pub total_transfer_floats: u64,
    /// Peak device bytes.
    pub peak_bytes: u64,
}

/// The `data` table of both plan schemas: every data structure of
/// `graph`, indexed by position.
pub(crate) fn data_docs(graph: &Graph) -> Vec<DataDoc> {
    graph
        .data_ids()
        .map(|d| {
            let desc = graph.data(d);
            DataDoc {
                name: desc.name.clone(),
                rows: desc.rows,
                cols: desc.cols,
                kind: match desc.kind {
                    DataKind::Input => "input",
                    DataKind::Output => "output",
                    DataKind::Constant => "constant",
                    DataKind::Temporary => "temporary",
                }
                .to_string(),
                bytes: desc.bytes(),
            }
        })
        .collect()
}

/// Build the document for `plan` over `graph`.
pub fn plan_doc(graph: &Graph, plan: &ExecutionPlan, template: &str) -> PlanDoc {
    let units = plan
        .units
        .iter()
        .map(|u| u.ops.iter().map(|&o| graph.op(o).name.clone()).collect())
        .collect();
    let steps = plan
        .steps
        .iter()
        .map(|s| match *s {
            Step::CopyIn { data: d, .. } => StepDoc::CopyIn { data: d.index() },
            Step::CopyOut { data: d, .. } => StepDoc::CopyOut { data: d.index() },
            Step::Free { data: d, .. } => StepDoc::Free { data: d.index() },
            Step::Launch(u) => StepDoc::Launch { unit: u },
        })
        .collect();
    let stats = plan.stats(graph);
    PlanDoc {
        template: template.to_string(),
        data: data_docs(graph),
        units,
        steps,
        total_transfer_floats: stats.total_floats(),
        peak_bytes: stats.peak_bytes,
    }
}

/// JSON value form of a `data` table.
pub(crate) fn data_value(data: &[DataDoc]) -> Value {
    let row = |d: &DataDoc| {
        let mut dm = Map::new();
        dm.insert("name", d.name.as_str());
        dm.insert("rows", d.rows);
        dm.insert("cols", d.cols);
        dm.insert("kind", d.kind.as_str());
        dm.insert("bytes", d.bytes);
        Value::Object(dm)
    };
    Value::Array(data.iter().map(row).collect())
}

/// JSON value form of a document.
pub fn doc_to_value(doc: &PlanDoc) -> Value {
    let mut m = Map::new();
    m.insert("template", doc.template.as_str());
    m.insert("data", data_value(&doc.data));
    m.insert(
        "units",
        Value::Array(
            doc.units
                .iter()
                .map(|names| Value::Array(names.iter().map(|n| Value::from(n.as_str())).collect()))
                .collect(),
        ),
    );
    m.insert(
        "steps",
        Value::Array(
            doc.steps
                .iter()
                .map(|s| {
                    let mut sm = Map::new();
                    match *s {
                        StepDoc::CopyIn { data } => {
                            sm.insert("op", "copy_in");
                            sm.insert("data", data);
                        }
                        StepDoc::CopyOut { data } => {
                            sm.insert("op", "copy_out");
                            sm.insert("data", data);
                        }
                        StepDoc::Free { data } => {
                            sm.insert("op", "free");
                            sm.insert("data", data);
                        }
                        StepDoc::Launch { unit } => {
                            sm.insert("op", "launch");
                            sm.insert("unit", unit);
                        }
                    }
                    Value::Object(sm)
                })
                .collect(),
        ),
    );
    m.insert("total_transfer_floats", doc.total_transfer_floats);
    m.insert("peak_bytes", doc.peak_bytes);
    Value::Object(m)
}

/// Serialize `plan` to pretty JSON, refusing if the static analyzer finds
/// any error in the plan.
pub fn plan_to_json(
    graph: &Graph,
    plan: &ExecutionPlan,
    template: &str,
) -> Result<String, EmitError> {
    crate::check_emittable(graph, plan, &[u64::MAX])?;
    Ok(doc_to_value(&plan_doc(graph, plan, template)).to_string_pretty())
}

/// Error parsing a plan document out of JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocParseError(pub String);

impl std::fmt::Display for DocParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid plan document: {}", self.0)
    }
}

impl std::error::Error for DocParseError {}

/// Parse a [`PlanDoc`] back out of JSON text.
pub fn parse_plan_doc(text: &str) -> Result<PlanDoc, DocParseError> {
    let v = gpuflow_minijson::parse(text).map_err(|e| DocParseError(e.to_string()))?;
    doc_from_value(&v)
}

/// Decode a [`PlanDoc`] from a parsed JSON value.
pub fn doc_from_value(v: &Value) -> Result<PlanDoc, DocParseError> {
    let err = |m: &str| DocParseError(m.to_string());
    let str_field = |v: &Value, k: &str| -> Result<String, DocParseError> {
        v[k].as_str()
            .map(str::to_string)
            .ok_or_else(|| err(&format!("missing or non-string field '{k}'")))
    };
    let num_field = |v: &Value, k: &str| -> Result<u64, DocParseError> {
        v[k].as_u64()
            .ok_or_else(|| err(&format!("missing or non-integer field '{k}'")))
    };
    let arr_field = |v: &Value, k: &str| -> Result<Vec<Value>, DocParseError> {
        v[k].as_array()
            .cloned()
            .ok_or_else(|| err(&format!("missing or non-array field '{k}'")))
    };

    let data = arr_field(v, "data")?
        .iter()
        .map(|d| {
            Ok(DataDoc {
                name: str_field(d, "name")?,
                rows: num_field(d, "rows")? as usize,
                cols: num_field(d, "cols")? as usize,
                kind: str_field(d, "kind")?,
                bytes: num_field(d, "bytes")?,
            })
        })
        .collect::<Result<Vec<_>, DocParseError>>()?;
    let units = arr_field(v, "units")?
        .iter()
        .map(|u| {
            u.as_array()
                .ok_or_else(|| err("unit is not an array"))?
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| err("unit op name is not a string"))
                })
                .collect::<Result<Vec<_>, DocParseError>>()
        })
        .collect::<Result<Vec<_>, DocParseError>>()?;
    let steps = arr_field(v, "steps")?
        .iter()
        .map(|s| {
            let op = str_field(s, "op")?;
            Ok(match op.as_str() {
                "copy_in" => StepDoc::CopyIn {
                    data: num_field(s, "data")? as usize,
                },
                "copy_out" => StepDoc::CopyOut {
                    data: num_field(s, "data")? as usize,
                },
                "free" => StepDoc::Free {
                    data: num_field(s, "data")? as usize,
                },
                "launch" => StepDoc::Launch {
                    unit: num_field(s, "unit")? as usize,
                },
                other => return Err(err(&format!("unknown step op '{other}'"))),
            })
        })
        .collect::<Result<Vec<_>, DocParseError>>()?;
    Ok(PlanDoc {
        template: str_field(v, "template")?,
        data,
        units,
        steps,
        total_transfer_floats: num_field(v, "total_transfer_floats")?,
        peak_bytes: num_field(v, "peak_bytes")?,
    })
}

/// Error from [`load_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError(pub String);

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan document does not match the graph: {}", self.0)
    }
}

impl std::error::Error for LoadError {}

/// Reconstruct an executable [`ExecutionPlan`] from a document, checking
/// it against `graph` — the loading half of the paper's "simple run-time
/// library to orchestrate execution" (§3.3 closing remark). The document's
/// data table must match the graph exactly (same order, names and shapes),
/// and unit operator names must resolve uniquely.
pub fn load_plan(doc: &PlanDoc, graph: &Graph) -> Result<ExecutionPlan, LoadError> {
    if doc.data.len() != graph.num_data() {
        return Err(LoadError(format!(
            "document has {} data structures, graph has {}",
            doc.data.len(),
            graph.num_data()
        )));
    }
    for (i, d) in doc.data.iter().enumerate() {
        let id = gpuflow_graph::DataId(i as u32);
        let desc = graph.data(id);
        if desc.name != d.name || desc.rows != d.rows || desc.cols != d.cols {
            return Err(LoadError(format!(
                "data {i}: document says {} {}x{}, graph says {} {}x{}",
                d.name, d.rows, d.cols, desc.name, desc.rows, desc.cols
            )));
        }
    }
    // Resolve unit op names.
    let mut by_name = std::collections::HashMap::new();
    for o in graph.op_ids() {
        if by_name.insert(graph.op(o).name.clone(), o).is_some() {
            return Err(LoadError(format!(
                "operator name '{}' is not unique in the graph",
                graph.op(o).name
            )));
        }
    }
    let units = doc
        .units
        .iter()
        .map(|names| {
            let ops = names
                .iter()
                .map(|n| {
                    by_name
                        .get(n)
                        .copied()
                        .ok_or_else(|| LoadError(format!("unknown operator '{n}'")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(gpuflow_core::OffloadUnit { ops })
        })
        .collect::<Result<Vec<_>, LoadError>>()?;
    let check_data = |i: usize| {
        if i < graph.num_data() {
            Ok(gpuflow_graph::DataId(i as u32))
        } else {
            Err(LoadError(format!("data index {i} out of range")))
        }
    };
    let steps = doc
        .steps
        .iter()
        .map(|s| {
            Ok(match *s {
                StepDoc::CopyIn { data } => Step::CopyIn {
                    device: 0,
                    data: check_data(data)?,
                },
                StepDoc::CopyOut { data } => Step::CopyOut {
                    device: 0,
                    data: check_data(data)?,
                },
                StepDoc::Free { data } => Step::Free {
                    device: 0,
                    data: check_data(data)?,
                },
                StepDoc::Launch { unit } => {
                    if unit >= units.len() {
                        return Err(LoadError(format!("unit index {unit} out of range")));
                    }
                    Step::Launch(unit)
                }
            })
        })
        .collect::<Result<Vec<_>, LoadError>>()?;
    Ok(ExecutionPlan::single_device(units, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_core::baseline_plan;
    use gpuflow_core::examples::fig3_graph;

    #[test]
    fn document_roundtrips_through_json() {
        let g = fig3_graph();
        let plan = baseline_plan(&g, u64::MAX).unwrap();
        let json = plan_to_json(&g, &plan, "fig3").unwrap();
        let doc = parse_plan_doc(&json).unwrap();
        assert_eq!(doc, plan_doc(&g, &plan, "fig3"));
        assert_eq!(doc.template, "fig3");
        assert_eq!(doc.data.len(), g.num_data());
        assert_eq!(doc.steps.len(), plan.steps.len());
        assert_eq!(doc.total_transfer_floats, plan.stats(&g).total_floats());
    }

    #[test]
    fn step_kinds_render_as_tagged_json() {
        let g = fig3_graph();
        let plan = baseline_plan(&g, u64::MAX).unwrap();
        let json = plan_to_json(&g, &plan, "fig3").unwrap();
        assert!(json.contains("\"op\": \"copy_in\""));
        assert!(json.contains("\"op\": \"copy_out\""));
        assert!(json.contains("\"op\": \"launch\""));
        assert!(json.contains("\"op\": \"free\""));
        assert!(json.contains("\"kind\": \"input\""));
        assert!(json.contains("\"kind\": \"output\""));
    }

    #[test]
    fn load_plan_roundtrips_and_executes() {
        use gpuflow_core::validate_plan;
        let g = fig3_graph();
        let plan = baseline_plan(&g, u64::MAX).unwrap();
        let doc = plan_doc(&g, &plan, "fig3");
        let loaded = load_plan(&doc, &g).unwrap();
        assert_eq!(loaded.steps, plan.steps);
        assert_eq!(loaded.units.len(), plan.units.len());
        validate_plan(&g, &loaded, u64::MAX).unwrap();
        // Round trip through actual JSON text too.
        let text = doc_to_value(&doc).to_string_compact();
        let doc2 = parse_plan_doc(&text).unwrap();
        assert_eq!(load_plan(&doc2, &g).unwrap().steps, plan.steps);
    }

    #[test]
    fn load_plan_rejects_mismatched_graph() {
        let g = fig3_graph();
        let plan = baseline_plan(&g, u64::MAX).unwrap();
        let mut doc = plan_doc(&g, &plan, "fig3");
        doc.data[0].rows += 1;
        assert!(load_plan(&doc, &g).is_err());
        let mut doc2 = plan_doc(&g, &plan, "fig3");
        doc2.units[0][0] = "nonexistent".into();
        assert!(load_plan(&doc2, &g).is_err());
        let mut doc3 = plan_doc(&g, &plan, "fig3");
        doc3.steps.push(StepDoc::Launch { unit: 999 });
        assert!(load_plan(&doc3, &g).is_err());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_plan_doc("not json").is_err());
        assert!(parse_plan_doc("{}").is_err());
        assert!(parse_plan_doc(
            r#"{"template":"t","data":[],"units":[],"steps":[{"op":"warp"}],"total_transfer_floats":0,"peak_bytes":0}"#
        )
        .is_err());
    }

    #[test]
    fn emission_refused_for_invalid_plans() {
        let g = fig3_graph();
        let mut plan = baseline_plan(&g, u64::MAX).unwrap();
        // Dropping the first CopyIn makes a launch read a non-resident
        // buffer; the JSON emitter must refuse.
        plan.steps.remove(0);
        let err = plan_to_json(&g, &plan, "fig3").unwrap_err();
        assert!(!err.errors.is_empty());
        assert!(err.to_string().contains("refusing to emit"), "{err}");
    }

    #[test]
    fn unit_names_preserved() {
        let g = fig3_graph();
        let plan = baseline_plan(&g, u64::MAX).unwrap();
        let doc = plan_doc(&g, &plan, "x");
        let all: Vec<String> = doc.units.into_iter().flatten().collect();
        assert!(all.contains(&"max1".to_string()));
        assert!(all.contains(&"C1".to_string()));
    }
}
