//! JSON emission for multi-device plans.
//!
//! The single-GPU [`crate::json`] document extended with device
//! annotations: a `devices` table, a `device` on every transfer/free step
//! and every unit, and whole-cluster transfer statistics. Like the other
//! emitters, this refuses to serialize a plan the multi-device static
//! analyzer rejects.

use gpuflow_core::{ExecutionPlan, Step};
use gpuflow_graph::Graph;
use gpuflow_minijson::{Map, Value};
use gpuflow_multi::MultiCompiled;
use gpuflow_sim::DeviceSpec;

use crate::EmitError;

fn device_value(d: &DeviceSpec) -> Value {
    let mut m = Map::new();
    m.insert("name", d.name.as_str());
    m.insert("memory_bytes", d.memory_bytes);
    m.insert("cores", d.cores);
    m.insert("clock_ghz", d.clock_ghz);
    m.insert("pcie_bw", d.pcie_bw);
    Value::Object(m)
}

fn multi_plan_value(
    graph: &Graph,
    plan: &ExecutionPlan,
    devices: &[DeviceSpec],
    template: &str,
) -> Value {
    let mut m = Map::new();
    m.insert("template", template);
    m.insert(
        "devices",
        Value::Array(devices.iter().map(device_value).collect()),
    );
    m.insert(
        "data",
        crate::json::data_value(&crate::json::data_docs(graph)),
    );
    m.insert(
        "units",
        Value::Array(
            plan.units
                .iter()
                .zip(&plan.unit_device)
                .map(|(u, &dev)| {
                    let mut um = Map::new();
                    um.insert(
                        "ops",
                        Value::Array(
                            u.ops
                                .iter()
                                .map(|&o| Value::from(graph.op(o).name.as_str()))
                                .collect(),
                        ),
                    );
                    um.insert("device", dev);
                    Value::Object(um)
                })
                .collect(),
        ),
    );
    m.insert(
        "steps",
        Value::Array(
            plan.steps
                .iter()
                .map(|s| {
                    let mut sm = Map::new();
                    match *s {
                        Step::CopyIn { device, data } => {
                            sm.insert("op", "copy_in");
                            sm.insert("device", device);
                            sm.insert("data", data.index());
                        }
                        Step::CopyOut { device, data } => {
                            sm.insert("op", "copy_out");
                            sm.insert("device", device);
                            sm.insert("data", data.index());
                        }
                        Step::Free { device, data } => {
                            sm.insert("op", "free");
                            sm.insert("device", device);
                            sm.insert("data", data.index());
                        }
                        Step::Launch(u) => {
                            sm.insert("op", "launch");
                            sm.insert("unit", u);
                            sm.insert("device", plan.unit_device[u]);
                        }
                    }
                    Value::Object(sm)
                })
                .collect(),
        ),
    );
    m.insert("bus_bytes", plan.bus_bytes(graph));
    Value::Object(m)
}

/// Serialize `plan` for `devices` to pretty JSON, refusing if the
/// multi-device static analyzer finds any error.
pub fn multi_plan_to_json(
    graph: &Graph,
    plan: &ExecutionPlan,
    devices: &[DeviceSpec],
    template: &str,
) -> Result<String, EmitError> {
    let capacities: Vec<u64> = devices.iter().map(|d| d.memory_bytes).collect();
    crate::check_emittable(graph, plan, &capacities)?;
    Ok(multi_plan_value(graph, plan, devices, template).to_string_pretty())
}

/// Convenience: serialize a [`MultiCompiled`] template.
pub fn compiled_multi_to_json(c: &MultiCompiled, template: &str) -> Result<String, EmitError> {
    multi_plan_to_json(
        &c.sharded.split.graph,
        &c.plan,
        &c.cluster.devices,
        template,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_graph::{DataKind, OpKind};
    use gpuflow_multi::{compile_multi, Cluster};
    use gpuflow_sim::device::tesla_c870;

    fn small_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.add("in", 512, 512, DataKind::Input);
        let m = g.add("mid", 512, 512, DataKind::Temporary);
        let o = g.add("out", 512, 512, DataKind::Output);
        g.add_op("t0", OpKind::Tanh, vec![a], m).unwrap();
        g.add_op("t1", OpKind::Tanh, vec![m], o).unwrap();
        g
    }

    #[test]
    fn clean_multi_plan_serializes_with_devices() {
        let g = small_graph();
        let cluster = Cluster::homogeneous(tesla_c870(), 2);
        let c = compile_multi(&g, &cluster, 0.05).unwrap();
        let json = compiled_multi_to_json(&c, "small").unwrap();
        assert!(json.contains("\"devices\""));
        assert!(json.contains("\"device\""));
        assert!(json.contains("\"bus_bytes\""));
        // Round-trips through the JSON parser.
        gpuflow_minijson::parse(&json).unwrap();
    }

    #[test]
    fn invalid_multi_plan_is_refused() {
        let g = small_graph();
        let cluster = Cluster::homogeneous(tesla_c870(), 2);
        let c = compile_multi(&g, &cluster, 0.05).unwrap();
        let mut bad = c.plan.clone();
        // Mutation: retarget the second unit's launch to the wrong device.
        bad.unit_device[1] = 1 - bad.unit_device[1];
        let err = multi_plan_to_json(&c.sharded.split.graph, &bad, &c.cluster.devices, "small")
            .unwrap_err();
        assert!(err.to_string().contains("refusing to emit"), "{err}");
    }
}
