//! JSON serialization of the network-layer types, for the
//! scenario-file surface (`hisq run`).
//!
//! Formats (all decoders reject unknown fields):
//!
//! ```json
//! {"serialization_ns": 100, "capacity": 2,
//!  "drop": {"loss_ppm": 10000, "seed": 7, "max_attempts": 16}}
//! ```
//!
//! A [`Topology`] serializes its grid dimensions, latencies, link
//! model, and the router tree (routers plus parent/children maps); the
//! controller mesh is *not* serialized — it is always the
//! 4-neighbourhood of the `width × height` grid and is rebuilt on
//! decode, which keeps scenario files compact and prevents them from
//! describing a mesh the engine cannot route.

use std::collections::BTreeMap;

use hisq_core::NodeAddr;
use hisq_json::{Json, JsonError, ObjReader};

use crate::router::Router;
use crate::topology::{grid_mesh, DropPolicy, FabricMap, LinkModel, Topology};

impl DropPolicy {
    /// Serializes the loss model.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("loss_ppm".into(), self.loss_ppm.into()),
            ("seed".into(), self.seed.into()),
            ("max_attempts".into(), self.max_attempts.into()),
        ])
    }

    /// Parses a loss model serialized by [`DropPolicy::to_json`].
    /// Omitted fields take the [`DropPolicy::default`] values.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for unknown fields, wrong
    /// types, or `max_attempts == 0`.
    pub fn from_json(value: &Json, path: &str) -> Result<DropPolicy, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let mut policy = DropPolicy::default();
        if let Some(v) = obj.optional("loss_ppm") {
            policy.loss_ppm = v.as_u32(&obj.field_path("loss_ppm"))?;
        }
        if let Some(v) = obj.optional("seed") {
            policy.seed = v.as_u64(&obj.field_path("seed"))?;
        }
        if let Some(v) = obj.optional("max_attempts") {
            policy.max_attempts = v.as_u32(&obj.field_path("max_attempts"))?;
        }
        if policy.max_attempts == 0 {
            return Err(JsonError::decode(
                obj.field_path("max_attempts"),
                "max_attempts must be at least 1",
            ));
        }
        obj.reject_unknown()?;
        Ok(policy)
    }
}

impl LinkModel {
    /// Serializes the contention model. The `drop` field is omitted
    /// when the link is lossless, so the transparent default renders as
    /// `{"serialization_ns":0,"capacity":1}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("serialization_ns".into(), self.serialization_ns.into()),
            ("capacity".into(), self.capacity.into()),
        ];
        if let Some(drop) = &self.drop {
            fields.push(("drop".into(), drop.to_json()));
        }
        Json::Object(fields)
    }

    /// Parses a contention model serialized by [`LinkModel::to_json`].
    /// Omitted fields take the transparent [`LinkModel::default`]
    /// values; `"drop": null` also means lossless.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for unknown fields, wrong
    /// types, `capacity == 0`, or a `serialization_ns` over
    /// [`LinkModel::MAX_SERIALIZATION_NS`].
    pub fn from_json(value: &Json, path: &str) -> Result<LinkModel, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let mut model = LinkModel::default();
        if let Some(v) = obj.optional("serialization_ns") {
            let field = obj.field_path("serialization_ns");
            model.serialization_ns = v.as_u64(&field)?;
            if model.serialization_ns > LinkModel::MAX_SERIALIZATION_NS {
                return Err(JsonError::decode(
                    field,
                    format!(
                        "serialization time {} ns is over the limit of {} ns (one waiti)",
                        model.serialization_ns,
                        LinkModel::MAX_SERIALIZATION_NS
                    ),
                ));
            }
        }
        if let Some(v) = obj.optional("capacity") {
            model.capacity = v.as_u32(&obj.field_path("capacity"))?;
        }
        if let Some(v) = obj.optional("drop") {
            if !matches!(v, Json::Null) {
                model.drop = Some(DropPolicy::from_json(v, &obj.field_path("drop"))?);
            }
        }
        if model.capacity == 0 {
            return Err(JsonError::decode(
                obj.field_path("capacity"),
                "capacity must be at least 1",
            ));
        }
        obj.reject_unknown()?;
        Ok(model)
    }
}

/// Serializes one per-edge override as
/// `{"from": a, "to": b, "model": {...}}`.
pub fn edge_override_to_json(from: NodeAddr, to: NodeAddr, model: &LinkModel) -> Json {
    Json::Object(vec![
        ("from".into(), from.into()),
        ("to".into(), to.into()),
        ("model".into(), model.to_json()),
    ])
}

/// Parses one per-edge override serialized by [`edge_override_to_json`].
pub fn edge_override_from_json(
    value: &Json,
    path: &str,
) -> Result<(NodeAddr, NodeAddr, LinkModel), JsonError> {
    let mut obj = ObjReader::new(value, path)?;
    let from = obj.required("from")?.as_u16(&obj.field_path("from"))?;
    let to = obj.required("to")?.as_u16(&obj.field_path("to"))?;
    let model = LinkModel::from_json(obj.required("model")?, &obj.field_path("model"))?;
    obj.reject_unknown()?;
    Ok((from, to, model))
}

impl FabricMap {
    /// Serializes the fabric map. The `overrides` field is omitted when
    /// the map is uniform, so a uniform fabric renders exactly as
    /// `{"default": <link model>}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("default".into(), self.default_model().to_json())];
        if !self.is_uniform() {
            fields.push((
                "overrides".into(),
                Json::Array(
                    self.overrides()
                        .map(|(f, t, m)| edge_override_to_json(f, t, &m))
                        .collect(),
                ),
            ));
        }
        Json::Object(fields)
    }

    /// Parses a fabric map serialized by [`FabricMap::to_json`]. An
    /// omitted `default` is the transparent model; an omitted
    /// `overrides` list is a uniform map.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for unknown fields, wrong
    /// types, a malformed model, or two overrides naming the same
    /// directed edge.
    pub fn from_json(value: &Json, path: &str) -> Result<FabricMap, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let mut fabric = FabricMap::default();
        if let Some(v) = obj.optional("default") {
            fabric.set_default(LinkModel::from_json(v, &obj.field_path("default"))?);
        }
        if let Some(v) = obj.optional("overrides") {
            let list_path = obj.field_path("overrides");
            let mut seen = std::collections::BTreeSet::new();
            for (i, entry) in v.as_array(&list_path)?.iter().enumerate() {
                let entry_path = format!("{list_path}[{i}]");
                let (from, to, model) = edge_override_from_json(entry, &entry_path)?;
                if !seen.insert((from, to)) {
                    return Err(JsonError::decode(
                        entry_path,
                        format!("duplicate override for edge {from} -> {to}"),
                    ));
                }
                fabric.set_edge(from, to, model);
            }
        }
        obj.reject_unknown()?;
        Ok(fabric)
    }
}

impl Router {
    /// Serializes the router's tree position (its dynamic session state
    /// is not part of a scenario and is not serialized).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("addr".into(), self.addr().into()),
            (
                "parent".into(),
                match self.parent() {
                    Some(p) => p.into(),
                    None => Json::Null,
                },
            ),
            (
                "children".into(),
                Json::Array(self.children().iter().map(|&c| c.into()).collect()),
            ),
        ])
    }

    /// Parses a router serialized by [`Router::to_json`], yielding a
    /// fresh (session-free) router.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for missing/unknown fields or
    /// wrong types.
    pub fn from_json(value: &Json, path: &str) -> Result<Router, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let addr = obj.required("addr")?.as_u16(&obj.field_path("addr"))?;
        let parent = match obj.required("parent")? {
            Json::Null => None,
            v => Some(v.as_u16(&obj.field_path("parent"))?),
        };
        let children_path = obj.field_path("children");
        let children = obj
            .required("children")?
            .as_array(&children_path)?
            .iter()
            .enumerate()
            .map(|(i, v)| v.as_u16(&format!("{children_path}[{i}]")))
            .collect::<Result<Vec<NodeAddr>, JsonError>>()?;
        obj.reject_unknown()?;
        Ok(Router::new(addr, parent, children))
    }
}

impl Topology {
    /// Serializes the topology: grid dimensions, latencies, link
    /// model, and the router tree. The mesh layer is implied by
    /// `width × height` and is not emitted.
    pub fn to_json(&self) -> Json {
        let tree = self
            .routers
            .iter()
            .map(|&r| {
                Json::Object(vec![
                    ("addr".into(), r.into()),
                    (
                        "parent".into(),
                        match self.parent_of(r) {
                            Some(p) => p.into(),
                            None => Json::Null,
                        },
                    ),
                    (
                        "children".into(),
                        Json::Array(self.children_of(r).iter().map(|&c| c.into()).collect()),
                    ),
                ])
            })
            .collect();
        let mut fields = vec![
            ("width".into(), self.width.into()),
            ("height".into(), self.height.into()),
            ("neighbor_latency".into(), self.neighbor_latency.into()),
            ("router_latency".into(), self.router_latency.into()),
            ("pipeline_headroom".into(), self.pipeline_headroom.into()),
            ("link_model".into(), self.fabric.default_model().to_json()),
        ];
        // Per-edge overrides are emitted only when present, so a
        // uniform-fabric topology serializes byte-identically to the
        // single-model era.
        if !self.fabric.is_uniform() {
            fields.push((
                "link_overrides".into(),
                Json::Array(
                    self.fabric
                        .overrides()
                        .map(|(f, t, m)| edge_override_to_json(f, t, &m))
                        .collect(),
                ),
            ));
        }
        fields.push(("routers".into(), Json::Array(tree)));
        Json::Object(fields)
    }

    /// Parses a topology serialized by [`Topology::to_json`],
    /// rebuilding the controller mesh from the grid dimensions and the
    /// parent map from the router tree.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for missing/unknown fields,
    /// wrong types, or an inconsistent router tree (no routers, zero
    /// grid area, duplicate routers, a child claimed by two routers, a
    /// child list naming an address that is neither a controller nor a
    /// listed router, or `parent` disagreeing with the child lists).
    pub fn from_json(value: &Json, path: &str) -> Result<Topology, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let width = obj.required("width")?.as_usize(&obj.field_path("width"))?;
        let height = obj
            .required("height")?
            .as_usize(&obj.field_path("height"))?;
        if width * height == 0 {
            return Err(JsonError::decode(
                path,
                "topology must have at least one controller (width * height > 0)",
            ));
        }
        let num_controllers = width * height;
        let neighbor_latency = obj
            .required("neighbor_latency")?
            .as_u64(&obj.field_path("neighbor_latency"))?;
        let router_latency = obj
            .required("router_latency")?
            .as_u64(&obj.field_path("router_latency"))?;
        let pipeline_headroom = obj
            .required("pipeline_headroom")?
            .as_u64(&obj.field_path("pipeline_headroom"))?;
        let link_model =
            LinkModel::from_json(obj.required("link_model")?, &obj.field_path("link_model"))?;
        let mut fabric = FabricMap::uniform(link_model);
        if let Some(v) = obj.optional("link_overrides") {
            let list_path = obj.field_path("link_overrides");
            let mut seen = std::collections::BTreeSet::new();
            for (i, entry) in v.as_array(&list_path)?.iter().enumerate() {
                let entry_path = format!("{list_path}[{i}]");
                let (from, to, model) = edge_override_from_json(entry, &entry_path)?;
                if !seen.insert((from, to)) {
                    return Err(JsonError::decode(
                        entry_path,
                        format!("duplicate override for edge {from} -> {to}"),
                    ));
                }
                fabric.set_edge(from, to, model);
            }
        }

        let routers_path = obj.field_path("routers");
        let entries = obj.required("routers")?;
        let entries = entries.as_array(&routers_path)?;
        if entries.is_empty() {
            return Err(JsonError::decode(
                routers_path,
                "topology must have at least one router",
            ));
        }
        let mut routers: Vec<NodeAddr> = Vec::with_capacity(entries.len());
        let mut parent: BTreeMap<NodeAddr, NodeAddr> = BTreeMap::new();
        let mut children: BTreeMap<NodeAddr, Vec<NodeAddr>> = BTreeMap::new();
        let mut declared_parent: BTreeMap<NodeAddr, Option<NodeAddr>> = BTreeMap::new();
        for (i, entry) in entries.iter().enumerate() {
            let entry_path = format!("{routers_path}[{i}]");
            let router = Router::from_json(entry, &entry_path)?;
            let addr = router.addr();
            if (addr as usize) < num_controllers {
                return Err(JsonError::decode(
                    entry_path,
                    format!("router address {addr} collides with the controller grid"),
                ));
            }
            if children.contains_key(&addr) {
                return Err(JsonError::decode(
                    entry_path,
                    format!("duplicate router {addr}"),
                ));
            }
            routers.push(addr);
            declared_parent.insert(addr, router.parent());
            children.insert(addr, router.children().to_vec());
        }
        let mut roots = 0usize;
        for (i, &addr) in routers.iter().enumerate() {
            let entry_path = format!("{routers_path}[{i}]");
            for &child in &children[&addr] {
                let is_controller = (child as usize) < num_controllers;
                if !is_controller && !children.contains_key(&child) {
                    return Err(JsonError::decode(
                        entry_path.clone(),
                        format!("child {child} is neither a controller nor a listed router"),
                    ));
                }
                if parent.insert(child, addr).is_some() {
                    return Err(JsonError::decode(
                        entry_path.clone(),
                        format!("node {child} is claimed as a child by two routers"),
                    ));
                }
            }
            if declared_parent[&addr].is_none() {
                roots += 1;
            }
        }
        if roots != 1 {
            return Err(JsonError::decode(
                routers_path.clone(),
                format!("the router tree must have exactly one root, found {roots}"),
            ));
        }
        for (i, &addr) in routers.iter().enumerate() {
            if parent.get(&addr).copied() != declared_parent[&addr] {
                return Err(JsonError::decode(
                    format!("{routers_path}[{i}]"),
                    format!("router {addr}'s `parent` disagrees with the child lists"),
                ));
            }
        }
        for controller in 0..num_controllers as NodeAddr {
            if !parent.contains_key(&controller) {
                return Err(JsonError::decode(
                    routers_path.clone(),
                    format!("controller {controller} is not attached to any router"),
                ));
            }
        }
        obj.reject_unknown()?;
        Ok(Topology {
            width,
            height,
            num_controllers,
            neighbor_latency,
            router_latency,
            pipeline_headroom,
            fabric,
            parent,
            children,
            routers,
            mesh: grid_mesh(width, height),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::topology::TopologyBuilder;
    use crate::{DropPolicy, LinkModel, Router, Topology};
    use hisq_json::Json;

    #[test]
    fn link_model_round_trips() {
        for model in [
            LinkModel::default(),
            LinkModel::serialized(100).with_capacity(2),
            LinkModel::serialized(25).with_drop(DropPolicy {
                loss_ppm: 50_000,
                seed: u64::MAX,
                max_attempts: 3,
            }),
        ] {
            let text = model.to_json().to_string_compact();
            let back = LinkModel::from_json(&Json::parse(&text).unwrap(), "lm").unwrap();
            assert_eq!(model, back, "{text}");
        }
    }

    #[test]
    fn link_model_rejects_bad_input() {
        for (text, needle) in [
            (r#"{"capacity": 0}"#, "capacity must be at least 1"),
            (r#"{"lanes": 4}"#, "unknown field `lanes`"),
            (
                r#"{"drop": {"max_attempts": 0}}"#,
                "max_attempts must be at least 1",
            ),
            (r#"{"drop": {"loss": 1}}"#, "lm.drop: unknown field `loss`"),
        ] {
            let err = LinkModel::from_json(&Json::parse(text).unwrap(), "lm").unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn router_round_trips() {
        let router = Router::new(9, Some(12), vec![0, 1, 2, 3]);
        let text = router.to_json().to_string_compact();
        assert_eq!(text, r#"{"addr":9,"parent":12,"children":[0,1,2,3]}"#);
        let back = Router::from_json(&Json::parse(&text).unwrap(), "r").unwrap();
        assert_eq!(router, back);
    }

    #[test]
    fn topology_round_trips() {
        let topo = TopologyBuilder::grid(4, 4)
            .router_arity(4)
            .link_model(LinkModel::serialized(50))
            .build();
        let text = topo.to_json().to_string_compact();
        let back = Topology::from_json(&Json::parse(&text).unwrap(), "topo").unwrap();
        assert_eq!(topo, back);
    }

    #[test]
    fn fabric_map_round_trips_and_rejects_bad_input() {
        let mut fabric = crate::FabricMap::uniform(LinkModel::serialized(8));
        // Uniform maps render exactly as {"default": ...}.
        assert_eq!(
            fabric.to_json().to_string_compact(),
            r#"{"default":{"serialization_ns":8,"capacity":1}}"#
        );
        fabric.set_edge(0, 1, LinkModel::serialized(64).with_capacity(2));
        let text = fabric.to_json().to_string_compact();
        let back = crate::FabricMap::from_json(&Json::parse(&text).unwrap(), "fm").unwrap();
        assert_eq!(fabric, back, "{text}");

        for (text, needle) in [
            (
                r#"{"default": {}, "overrides": [{"from": 0, "to": 1, "model": {}},
                    {"from": 0, "to": 1, "model": {"serialization_ns": 4}}]}"#,
                "duplicate override for edge 0 -> 1",
            ),
            (
                r#"{"overrides": [{"from": 0, "model": {}}]}"#,
                "missing field `to`",
            ),
            (r#"{"edges": []}"#, "unknown field `edges`"),
            (
                r#"{"overrides": [{"from": 0, "to": 1, "model": {"lanes": 2}}]}"#,
                "unknown field `lanes`",
            ),
        ] {
            let err = crate::FabricMap::from_json(&Json::parse(text).unwrap(), "fm").unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn heterogeneous_topology_round_trips() {
        let topo = TopologyBuilder::grid(4, 4)
            .link_model(LinkModel::serialized(8))
            .link_model_for(5, 6, LinkModel::serialized(64))
            .link_model_for(6, 5, LinkModel::serialized(64))
            .build();
        let text = topo.to_json().to_string_compact();
        assert!(text.contains("\"link_overrides\""), "{text}");
        let back = Topology::from_json(&Json::parse(&text).unwrap(), "topo").unwrap();
        assert_eq!(topo, back);

        // A uniform topology never emits the overrides field, keeping
        // single-model-era documents byte-identical.
        let uniform = TopologyBuilder::grid(4, 4).build();
        assert!(!uniform
            .to_json()
            .to_string_compact()
            .contains("link_overrides"));
    }

    #[test]
    fn surgered_topology_round_trips() {
        let mut topo = TopologyBuilder::grid(4, 4).build();
        topo.drop_router_level().unwrap();
        let back = Topology::from_json(&topo.to_json(), "topo").unwrap();
        assert_eq!(topo, back);

        let mut topo = TopologyBuilder::grid(4, 4).build();
        let donor = topo.routers()[0];
        let target = topo.routers()[1];
        let moved = topo.children_of(donor)[0];
        topo.rewire_subtree(moved, target).unwrap();
        let back = Topology::from_json(&topo.to_json(), "topo").unwrap();
        assert_eq!(topo, back);
    }

    #[test]
    fn inconsistent_trees_are_rejected() {
        let topo = TopologyBuilder::grid(2, 2).build();
        let Json::Object(mut fields) = topo.to_json() else {
            unreachable!()
        };
        // Orphan controller 0 by removing it from the root's children.
        for (key, value) in &mut fields {
            if key == "routers" {
                let Json::Array(entries) = value else {
                    unreachable!()
                };
                let Json::Object(router_fields) = &mut entries[0] else {
                    unreachable!()
                };
                for (rk, rv) in router_fields {
                    if rk == "children" {
                        let Json::Array(kids) = rv else {
                            unreachable!()
                        };
                        kids.remove(0);
                    }
                }
            }
        }
        let err = Topology::from_json(&Json::Object(fields), "topo").unwrap_err();
        assert!(
            err.to_string().contains("controller 0 is not attached"),
            "{err}"
        );
    }

    #[test]
    fn drop_router_level_flattens_the_tree() {
        // 4×4 grid, arity 4: one level of 4 region routers + a root.
        let mut topo = TopologyBuilder::grid(4, 4).build();
        assert_eq!(topo.num_routers(), 5);
        let root = topo.root_router().unwrap();
        topo.drop_router_level().unwrap();
        assert_eq!(topo.num_routers(), 1);
        assert_eq!(topo.root_router(), Some(root));
        // All 16 controllers now hang off the root directly, in order.
        assert_eq!(
            topo.children_of(root),
            (0..16).collect::<Vec<_>>().as_slice()
        );
        assert!((0..16).all(|c| topo.parent_of(c) == Some(root)));
        // Dropping the root level itself is refused.
        assert!(topo.drop_router_level().is_err());
    }

    #[test]
    fn rewire_subtree_moves_a_region() {
        let mut topo = TopologyBuilder::grid(4, 4).build();
        let donor = topo.routers()[0];
        let target = topo.routers()[1];
        let moved = topo.children_of(donor)[0];
        topo.rewire_subtree(moved, target).unwrap();
        assert_eq!(topo.parent_of(moved), Some(target));
        assert!(!topo.children_of(donor).contains(&moved));
        assert_eq!(*topo.children_of(target).last().unwrap(), moved);

        // Cycle: the root under one of its descendants.
        let root = topo.root_router().unwrap();
        assert!(topo.rewire_subtree(root, donor).is_err());
        // New parent must be a router.
        assert!(topo.rewire_subtree(moved, 0).is_err());
    }
}
