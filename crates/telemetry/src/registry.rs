use std::collections::BTreeMap;

use crate::epoch::EpochSeries;
use crate::histogram::Log2Histogram;
use crate::json;
use crate::metric::{Desc, Kind, Metric, MetricValue};
use crate::SCHEMA_VERSION;

/// An ordered collection of registered metrics, labels and epoch
/// series, exportable as one deterministic JSON document.
///
/// Metrics are keyed by their resolved dotted name and stored in name
/// order; labels (free-form string context such as the core preset or
/// the improvement set) are likewise ordered. Registering the same
/// name twice keeps the last value — exporters run once at end of run,
/// so overwrite is the least surprising rule for re-exports.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
    labels: BTreeMap<String, String>,
    epochs: Option<EpochSeries>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Attaches a free-form string label (context, not a metric).
    pub fn label(&mut self, key: &str, value: &str) {
        self.labels.insert(key.to_owned(), value.to_owned());
    }

    /// Registers a counter through its catalog descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `desc` is templated (use [`Registry::counter_at`]) or
    /// not a counter.
    pub fn counter(&mut self, desc: &'static Desc, value: u64) {
        assert!(!desc.is_templated(), "templated descriptor {} needs counter_at", desc.name);
        self.insert(desc.name.to_owned(), desc, MetricValue::Counter(value));
    }

    /// Registers one instance of a templated counter.
    pub fn counter_at(&mut self, desc: &'static Desc, instance: &str, value: u64) {
        self.insert(desc.instance(instance), desc, MetricValue::Counter(value));
    }

    /// Registers a gauge through its catalog descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `desc` is templated (use [`Registry::gauge_at`]) or
    /// not a gauge.
    pub fn gauge(&mut self, desc: &'static Desc, value: f64) {
        assert!(!desc.is_templated(), "templated descriptor {} needs gauge_at", desc.name);
        self.insert(desc.name.to_owned(), desc, MetricValue::Gauge(value));
    }

    /// Registers one instance of a templated gauge.
    pub fn gauge_at(&mut self, desc: &'static Desc, instance: &str, value: f64) {
        self.insert(desc.instance(instance), desc, MetricValue::Gauge(value));
    }

    /// Registers a histogram through its catalog descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `desc` is templated or not a histogram.
    pub fn histogram(&mut self, desc: &'static Desc, value: Log2Histogram) {
        assert!(!desc.is_templated(), "templated descriptor {} needs an instance", desc.name);
        self.insert(desc.name.to_owned(), desc, MetricValue::Histogram(value));
    }

    fn insert(&mut self, name: String, desc: &'static Desc, value: MetricValue) {
        let kind = match value {
            MetricValue::Counter(_) => Kind::Counter,
            MetricValue::Gauge(_) => Kind::Gauge,
            MetricValue::Histogram(_) => Kind::Histogram,
        };
        assert!(
            kind == desc.kind,
            "metric {} registered as {:?} but declared {:?}",
            name,
            kind,
            desc.kind
        );
        self.metrics.insert(name.clone(), Metric { name, desc, value });
    }

    /// Attaches the per-epoch snapshot series.
    pub fn set_epochs(&mut self, epochs: EpochSeries) {
        self.epochs = Some(epochs);
    }

    /// The attached epoch series, if any.
    pub fn epochs(&self) -> Option<&EpochSeries> {
        self.epochs.as_ref()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The registered metric named `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Convenience: the counter value of `name` (0 when absent or not
    /// a counter).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.metrics.get(name).map(|m| &m.value) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Iterates all metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.values()
    }

    /// Copies every metric, label and the epoch series (if any) of
    /// `other` into `self`, overwriting same-named entries.
    pub fn merge(&mut self, other: &Registry) {
        for m in other.metrics.values() {
            self.metrics.insert(m.name.clone(), m.clone());
        }
        for (k, v) in &other.labels {
            self.labels.insert(k.clone(), v.clone());
        }
        if let Some(e) = &other.epochs {
            self.epochs = Some(e.clone());
        }
    }

    /// Serializes the registry as the schema-versioned JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_with(|_| {})
    }

    /// Like [`Registry::to_json`], with `extra` writing further
    /// top-level members into the same document after `epochs`.
    pub fn to_json_with(&self, extra: impl FnOnce(&mut json::Object<'_>)) -> String {
        let mut doc = json::object(|doc| {
            doc.str("schema", SCHEMA_VERSION)
                .object("labels", |labels| {
                    for (key, value) in &self.labels {
                        labels.str(key, value);
                    }
                })
                .objects("metrics", self.metrics.values(), |row, m| {
                    row.str("name", &m.name)
                        .str("kind", m.desc.kind.as_str())
                        .str("unit", m.desc.unit.as_str())
                        .str("description", m.desc.description);
                    match &m.value {
                        MetricValue::Counter(v) => row.u64("value", *v),
                        MetricValue::Gauge(v) => row.f64("value", *v),
                        MetricValue::Histogram(h) => row.object("value", |value| {
                            value
                                .u64("count", h.count())
                                .f64("mean", h.mean())
                                .u64("max", h.max())
                                .u64_triples("buckets", h.nonzero_buckets());
                        }),
                    };
                });
            if let Some(epochs) = &self.epochs {
                doc.object("epochs", |e| {
                    e.u64("epoch_instructions", epochs.epoch_instructions())
                        .u64("rows", epochs.rows() as u64)
                        .object("series", |series| {
                            for (name, column) in epochs.columns() {
                                series.u64s(name, column.iter().copied());
                            }
                        });
                });
            }
            extra(doc);
        });
        doc.push('\n');
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn metrics_export_in_name_order() {
        let mut r = Registry::new();
        r.counter(&catalog::SIM_CYCLES, 10);
        r.counter(&catalog::SIM_INSTRUCTIONS, 20);
        let names: Vec<&str> = r.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["sim.cycles", "sim.instructions"]);
        let json = r.to_json();
        assert!(json.find("sim.cycles").unwrap() < json.find("sim.instructions").unwrap());
    }

    #[test]
    fn instances_resolve_placeholders() {
        let mut r = Registry::new();
        r.counter_at(&catalog::MEMSYS_DEMAND_MISSES, "l1i", 3);
        assert_eq!(r.counter_value("memsys.l1i.demand_misses"), 3);
    }

    #[test]
    #[should_panic(expected = "declared")]
    fn kind_mismatch_panics() {
        let mut r = Registry::new();
        r.gauge(&catalog::SIM_INSTRUCTIONS, 1.0);
    }

    #[test]
    fn json_document_is_self_describing() {
        let mut r = Registry::new();
        r.label("core", "iiswc");
        r.gauge(&catalog::SIM_IPC, 1.25);
        let json = r.to_json();
        assert!(json.starts_with("{\"schema\":\"trace-rebase-metrics/v1\""), "{json}");
        assert!(json.contains("\"labels\":{\"core\":\"iiswc\"}"), "{json}");
        assert!(json.contains("\"unit\":\"ratio\""), "{json}");
        assert!(json.contains("\"value\":1.250000"), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
    }

    #[test]
    fn histogram_and_epochs_serialize() {
        let mut h = Log2Histogram::new();
        h.record(4);
        let mut r = Registry::new();
        r.histogram(&catalog::SIM_ROB_OCCUPANCY, h);
        let mut e = EpochSeries::new(100, &["cycles"]);
        e.push_row(&[42]);
        r.set_epochs(e);
        let json = r.to_json();
        assert!(json.contains("\"buckets\":[[4,8,1]]"), "{json}");
        assert!(json.contains("\"epochs\":{\"epoch_instructions\":100"), "{json}");
    }

    #[test]
    fn merge_copies_everything() {
        let mut a = Registry::new();
        a.counter(&catalog::SIM_CYCLES, 1);
        let mut b = Registry::new();
        b.counter(&catalog::SIM_INSTRUCTIONS, 2);
        b.label("x", "y");
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.counter_value("sim.instructions"), 2);
        assert!(a.to_json().contains("\"x\":\"y\""));
    }

    /// The exact bytes of a document that takes every writer path: an
    /// escaped label, a counter, a gauge, a templated instance, a
    /// histogram with buckets, epochs and one extra top-level section.
    #[test]
    fn document_bytes_are_pinned() {
        let mut r = Registry::new();
        r.label("trace", "dir\\a \"b\".cvp");
        r.label("core", "iiswc");
        r.counter(&catalog::SIM_INSTRUCTIONS, 1_000);
        r.gauge(&catalog::SIM_IPC, 1.25);
        r.counter_at(&catalog::MEMSYS_DEMAND_MISSES, "l1i", 3);
        let mut h = Log2Histogram::new();
        for value in [0, 1, 3, 40, 40] {
            h.record(value);
        }
        r.histogram(&catalog::SIM_ROB_OCCUPANCY, h);
        let mut e = EpochSeries::new(500, &["cycles", "l1i_demand_misses"]);
        e.push_row(&[400, 2]);
        e.push_row(&[450, 0]);
        r.set_epochs(e);
        let document = concat!(
            r#"{"schema":"trace-rebase-metrics/v1","#,
            r#""labels":{"core":"iiswc","trace":"dir\\a \"b\".cvp"},"#,
            r#""metrics":[{"name":"memsys.l1i.demand_misses","kind":"counter","unit":"count","#,
            r#""description":"Demand misses at one cache level; {level} as in "#,
            r#"memsys.{level}.demand_accesses","value":3},"#,
            r#"{"name":"sim.instructions","kind":"counter","unit":"instructions","#,
            r#""description":"Retired trace records in the measured (post-warm-up) window","#,
            r#""value":1000},"#,
            r#"{"name":"sim.ipc","kind":"gauge","unit":"ratio","#,
            r#""description":"Instructions per cycle over the measured window","value":1.250000},"#,
            r#"{"name":"sim.rob.occupancy","kind":"histogram","unit":"count","#,
            r#""description":"Log2 histogram of ROB occupancy sampled at every dispatch","#,
            r#""value":{"count":5,"mean":16.800000,"max":40,"#,
            r#""buckets":[[0,1,1],[1,2,1],[2,4,1],[32,64,2]]}}],"#,
            r#""epochs":{"epoch_instructions":500,"rows":2,"#,
            r#""series":{"cycles":[400,450],"l1i_demand_misses":[2,0]}}}"#,
            "\n"
        );
        assert_eq!(r.to_json(), document);
        let section =
            r#","attribution":[{"config":"flag-reg","ipc_delta_pct":-1.500000,"cycle_delta":-7}]"#;
        let with_section = format!("{}{section}}}\n", &document[..document.len() - 2]);
        let extended = r.to_json_with(|doc| {
            doc.objects("attribution", ["flag-reg"], |row, config| {
                row.str("config", config).f64("ipc_delta_pct", -1.5).i64("cycle_delta", -7);
            });
        });
        assert_eq!(extended, with_section);
    }

    #[test]
    fn extra_sections_append_in_order() {
        let r = Registry::new();
        let json = r.to_json_with(|doc| {
            doc.u64s("attribution", [1, 2]).bool("complete", true);
        });
        assert!(json.ends_with(",\"attribution\":[1,2],\"complete\":true}\n"), "{json}");
    }
}
