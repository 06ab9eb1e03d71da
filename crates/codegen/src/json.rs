//! JSON plan documents.
//!
//! A machine-readable rendering of an execution plan — the input format
//! for the "simple run-time library to orchestrate execution" the paper
//! describes at the end of §3.3. Serialized with `gpuflow-minijson`; one
//! document shape serves every machine:
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
//!
//! A cluster document is the same document plus a `devices` table after
//! `template` (`name`, `memory_bytes`, `cores`, `clock_ghz`, `pcie_bw`),
//! a `unit_device` array after `units`, and a `device` on every transfer
//! and free step. [`load_plan`] reads both back, defaulting absent
//! device fields to `0`.

use gpuflow_core::{ExecutionPlan, Step};
use gpuflow_graph::{DataId, DataKind, Graph};
use gpuflow_minijson::{Map, Value};
use gpuflow_sim::DeviceSpec;

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

/// One device of a cluster document's `devices` table.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDoc {
    /// Marketing name.
    pub name: String,
    /// Memory capacity in bytes.
    pub memory_bytes: u64,
    /// Number of scalar cores.
    pub cores: u64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Host↔device bandwidth in bytes/second.
    pub pcie_bw: f64,
}

/// A complete serializable plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDoc {
    /// Template name.
    pub template: String,
    /// The cluster's devices. Empty for a one-device document, which
    /// writes no `devices`, `unit_device` or step `device` fields.
    pub devices: Vec<DeviceDoc>,
    /// All data structures, indexed by position.
    pub data: Vec<DataDoc>,
    /// Offload units as lists of operator names.
    pub units: Vec<Vec<String>>,
    /// Device each unit launches on (parallel to `units`).
    pub unit_device: Vec<usize>,
    /// The step sequence.
    pub steps: Vec<Step>,
    /// Total floats moved host↔device.
    pub total_transfer_floats: u64,
    /// Peak device bytes.
    pub peak_bytes: u64,
}

/// Build the document for `plan` over `graph` on `devices` (empty for a
/// one-device document), refusing if the static analyzer finds any error.
/// The analyzer's walk also supplies the transfer statistics.
pub fn plan_doc(
    graph: &Graph,
    plan: &ExecutionPlan,
    devices: &[DeviceSpec],
    template: &str,
) -> Result<PlanDoc, EmitError> {
    let capacities: Vec<u64> = if devices.is_empty() {
        vec![u64::MAX]
    } else {
        devices.iter().map(|d| d.memory_bytes).collect()
    };
    let stats = crate::check_emittable(graph, plan, &capacities)?.stats;
    let data = graph
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
        .collect();
    Ok(PlanDoc {
        template: template.to_string(),
        devices: devices
            .iter()
            .map(|d| DeviceDoc {
                name: d.name.clone(),
                memory_bytes: d.memory_bytes,
                cores: d.cores.into(),
                clock_ghz: d.clock_ghz,
                pcie_bw: d.pcie_bw,
            })
            .collect(),
        data,
        units: plan
            .units
            .iter()
            .map(|u| u.ops.iter().map(|&o| graph.op(o).name.clone()).collect())
            .collect(),
        unit_device: plan.unit_device.clone(),
        steps: plan.steps.clone(),
        total_transfer_floats: stats.total_floats(),
        peak_bytes: stats.peak_bytes,
    })
}

/// Serialize `plan` on `devices` (empty for one device) to pretty JSON,
/// refusing if the static analyzer finds any error in the plan.
pub fn emit(
    graph: &Graph,
    plan: &ExecutionPlan,
    devices: &[DeviceSpec],
    template: &str,
) -> Result<String, EmitError> {
    Ok(doc_to_value(&plan_doc(graph, plan, devices, template)?).to_string_pretty())
}

/// Serialize a one-device `plan` to pretty JSON (see [`emit`]).
pub fn plan_to_json(
    graph: &Graph,
    plan: &ExecutionPlan,
    template: &str,
) -> Result<String, EmitError> {
    emit(graph, plan, &[], template)
}

/// JSON value form of a document.
pub fn doc_to_value(doc: &PlanDoc) -> Value {
    let cluster = !doc.devices.is_empty();
    let mut m = Map::new();
    m.insert("template", doc.template.as_str());
    if cluster {
        let device = |d: &DeviceDoc| {
            object([
                ("name", d.name.as_str().into()),
                ("memory_bytes", d.memory_bytes.into()),
                ("cores", d.cores.into()),
                ("clock_ghz", d.clock_ghz.into()),
                ("pcie_bw", d.pcie_bw.into()),
            ])
        };
        m.insert(
            "devices",
            Value::Array(doc.devices.iter().map(device).collect()),
        );
    }
    let data = |d: &DataDoc| {
        object([
            ("name", d.name.as_str().into()),
            ("rows", d.rows.into()),
            ("cols", d.cols.into()),
            ("kind", d.kind.as_str().into()),
            ("bytes", d.bytes.into()),
        ])
    };
    m.insert("data", Value::Array(doc.data.iter().map(data).collect()));
    let unit =
        |names: &Vec<String>| Value::Array(names.iter().map(|n| n.as_str().into()).collect());
    m.insert("units", Value::Array(doc.units.iter().map(unit).collect()));
    if cluster {
        m.insert("unit_device", doc.unit_device.clone());
    }
    let step = |s: &Step| {
        let (op, device, data) = match *s {
            Step::CopyIn { device, data } => ("copy_in", device, data),
            Step::CopyOut { device, data } => ("copy_out", device, data),
            Step::Free { device, data } => ("free", device, data),
            Step::Launch(u) => return object([("op", "launch".into()), ("unit", u.into())]),
        };
        let (op, data) = (("op", op.into()), ("data", data.index().into()));
        if cluster {
            object([op, ("device", device.into()), data])
        } else {
            object([op, data])
        }
    };
    m.insert("steps", Value::Array(doc.steps.iter().map(step).collect()));
    m.insert("total_transfer_floats", doc.total_transfer_floats);
    m.insert("peak_bytes", doc.peak_bytes);
    Value::Object(m)
}

/// A JSON object of `fields`, in order.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    let mut m = Map::new();
    for (k, v) in fields {
        m.insert(k, v);
    }
    Value::Object(m)
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

/// Field `k` of `v` read by `get`, or an error naming its `kind`.
fn field<'a, T>(
    v: &'a Value,
    k: &str,
    kind: &str,
    get: impl Fn(&'a Value) -> Option<T>,
) -> Result<T, DocParseError> {
    get(&v[k]).ok_or_else(|| DocParseError(format!("missing or non-{kind} field '{k}'")))
}

/// Integer field `k` of `v` as an index.
fn index(v: &Value, k: &str) -> Result<usize, DocParseError> {
    field(v, k, "integer", Value::as_u64).map(|n| n as usize)
}

/// Decode a [`PlanDoc`] from a parsed JSON value.
pub fn doc_from_value(v: &Value) -> Result<PlanDoc, DocParseError> {
    let err = |m: &str| DocParseError(m.to_string());
    let string = |v: &Value, k: &str| field(v, k, "string", Value::as_str).map(str::to_string);
    let number = |v: &Value, k: &str| field(v, k, "number", Value::as_f64);
    let integer = |v: &Value, k: &str| field(v, k, "integer", Value::as_u64);
    let array = |v, k| field(v, k, "array", Value::as_array);

    let devices = match v.get("devices") {
        None => Vec::new(),
        Some(_) => array(v, "devices")?
            .iter()
            .map(|d| {
                Ok(DeviceDoc {
                    name: string(d, "name")?,
                    memory_bytes: integer(d, "memory_bytes")?,
                    cores: integer(d, "cores")?,
                    clock_ghz: number(d, "clock_ghz")?,
                    pcie_bw: number(d, "pcie_bw")?,
                })
            })
            .collect::<Result<_, DocParseError>>()?,
    };
    let data = array(v, "data")?
        .iter()
        .map(|d| {
            Ok(DataDoc {
                name: string(d, "name")?,
                rows: index(d, "rows")?,
                cols: index(d, "cols")?,
                kind: string(d, "kind")?,
                bytes: integer(d, "bytes")?,
            })
        })
        .collect::<Result<_, DocParseError>>()?;
    let units: Vec<Vec<String>> = array(v, "units")?
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
                .collect()
        })
        .collect::<Result<_, DocParseError>>()?;
    let unit_device = match v.get("unit_device") {
        None => vec![0; units.len()],
        Some(_) => array(v, "unit_device")?
            .iter()
            .map(|d| d.as_u64().map(|d| d as usize))
            .collect::<Option<_>>()
            .ok_or_else(|| err("unit device is not an integer"))?,
    };
    let steps = array(v, "steps")?
        .iter()
        .map(|s| {
            let device = match s.get("device") {
                None => 0,
                Some(_) => index(s, "device")?,
            };
            let data = || {
                u32::try_from(integer(s, "data")?)
                    .map(DataId)
                    .map_err(|_| err("data index out of range"))
            };
            Ok(match string(s, "op")?.as_str() {
                "copy_in" => Step::CopyIn {
                    device,
                    data: data()?,
                },
                "copy_out" => Step::CopyOut {
                    device,
                    data: data()?,
                },
                "free" => Step::Free {
                    device,
                    data: data()?,
                },
                "launch" => Step::Launch(index(s, "unit")?),
                other => return Err(err(&format!("unknown step op '{other}'"))),
            })
        })
        .collect::<Result<_, DocParseError>>()?;
    Ok(PlanDoc {
        template: string(v, "template")?,
        devices,
        data,
        units,
        unit_device,
        steps,
        total_transfer_floats: integer(v, "total_transfer_floats")?,
        peak_bytes: integer(v, "peak_bytes")?,
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
/// unit operator names must resolve uniquely, and every device index must
/// name a row of the `devices` table (only device `0` in a one-device
/// document).
pub fn load_plan(doc: &PlanDoc, graph: &Graph) -> Result<ExecutionPlan, LoadError> {
    if doc.data.len() != graph.num_data() {
        return Err(LoadError(format!(
            "document has {} data structures, graph has {}",
            doc.data.len(),
            graph.num_data()
        )));
    }
    for (i, d) in doc.data.iter().enumerate() {
        let desc = graph.data(DataId(i as u32));
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
    if doc.unit_device.len() != units.len() {
        return Err(LoadError(format!(
            "{} unit devices for {} units",
            doc.unit_device.len(),
            units.len()
        )));
    }
    let devices = doc.devices.len().max(1);
    let check_device = |d: usize| {
        if d < devices {
            Ok(())
        } else {
            Err(LoadError(format!(
                "device index {d} out of range ({devices} devices)"
            )))
        }
    };
    for &d in &doc.unit_device {
        check_device(d)?;
    }
    for s in &doc.steps {
        match *s {
            Step::CopyIn { device, data }
            | Step::CopyOut { device, data }
            | Step::Free { device, data } => {
                check_device(device)?;
                if data.index() >= graph.num_data() {
                    return Err(LoadError(format!(
                        "data index {} out of range",
                        data.index()
                    )));
                }
            }
            Step::Launch(u) if u >= units.len() => {
                return Err(LoadError(format!("unit index {u} out of range")));
            }
            Step::Launch(_) => {}
        }
    }
    let mut plan = ExecutionPlan::single_device(units, doc.steps.clone());
    plan.unit_device = doc.unit_device.clone();
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_core::baseline_plan;
    use gpuflow_core::examples::fig3_graph;

    fn fig3_doc() -> (Graph, ExecutionPlan, PlanDoc) {
        let g = fig3_graph();
        let plan = baseline_plan(&g, u64::MAX).unwrap();
        let doc = plan_doc(&g, &plan, &[], "fig3").unwrap();
        (g, plan, doc)
    }

    #[test]
    fn document_roundtrips_through_json() {
        let (g, plan, doc) = fig3_doc();
        let json = plan_to_json(&g, &plan, "fig3").unwrap();
        assert_eq!(parse_plan_doc(&json).unwrap(), doc);
        assert_eq!(doc.template, "fig3");
        assert_eq!(doc.data.len(), g.num_data());
        assert_eq!(doc.steps.len(), plan.steps.len());
        assert_eq!(doc.total_transfer_floats, plan.stats(&g).total_floats());
        assert_eq!(doc.peak_bytes, plan.stats(&g).peak_bytes);
    }

    #[test]
    fn step_kinds_render_as_tagged_json() {
        let (g, plan, _) = fig3_doc();
        let json = plan_to_json(&g, &plan, "fig3").unwrap();
        assert!(json.contains("\"op\": \"copy_in\""));
        assert!(json.contains("\"op\": \"copy_out\""));
        assert!(json.contains("\"op\": \"launch\""));
        assert!(json.contains("\"op\": \"free\""));
        assert!(json.contains("\"kind\": \"input\""));
        assert!(json.contains("\"kind\": \"output\""));
        // A one-device document carries no device fields.
        assert!(!json.contains("device"));
    }

    #[test]
    fn load_plan_roundtrips_and_executes() {
        use gpuflow_core::validate_plan;
        let (g, plan, doc) = fig3_doc();
        let loaded = load_plan(&doc, &g).unwrap();
        assert_eq!(loaded.steps, plan.steps);
        assert_eq!(loaded.unit_device, plan.unit_device);
        validate_plan(&g, &loaded, u64::MAX).unwrap();
        // Round trip through actual JSON text too.
        let text = doc_to_value(&doc).to_string_compact();
        let doc2 = parse_plan_doc(&text).unwrap();
        assert_eq!(load_plan(&doc2, &g).unwrap().steps, plan.steps);
    }

    #[test]
    fn load_plan_rejects_mismatched_graph() {
        let (g, _, doc) = fig3_doc();
        let mut doc1 = doc.clone();
        doc1.data[0].rows += 1;
        assert!(load_plan(&doc1, &g).is_err());
        let mut doc2 = doc.clone();
        doc2.units[0][0] = "nonexistent".into();
        assert!(load_plan(&doc2, &g).is_err());
        let mut doc3 = doc.clone();
        doc3.steps.push(Step::Launch(999));
        assert!(load_plan(&doc3, &g).is_err());
        // A one-device document has exactly device 0.
        let mut doc4 = doc;
        doc4.unit_device[0] = 1;
        let e = load_plan(&doc4, &g).unwrap_err();
        assert!(e.0.contains("device index 1 out of range"), "{e}");
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
    fn cluster_emission_checks_each_device() {
        use gpuflow_multi::{compile_multi, Cluster};
        let g = fig3_graph();
        let cluster = Cluster::homogeneous(gpuflow_sim::device::tesla_c870(), 2);
        let c = compile_multi(&g, &cluster, 0.05).unwrap();
        let (sg, devices) = (&c.split.graph, &cluster.devices);
        let doc = plan_doc(sg, &c.plan, devices, "fig3").unwrap();
        assert_eq!(doc.devices.len(), 2);
        assert_eq!(doc.unit_device, c.plan.unit_device);
        // Mutation: retarget the first unit's launch to the other device.
        let mut bad = (*c.plan).clone();
        bad.unit_device[0] = 1 - bad.unit_device[0];
        let err = emit(sg, &bad, devices, "fig3").unwrap_err();
        assert!(err.to_string().contains("refusing to emit"), "{err}");
    }

    #[test]
    fn unit_names_preserved() {
        let (_, _, doc) = fig3_doc();
        let all: Vec<String> = doc.units.into_iter().flatten().collect();
        assert!(all.contains(&"max1".to_string()));
        assert!(all.contains(&"C1".to_string()));
    }
}
