//! A named DNN model: an ordered list of layers plus task metadata.

use crate::{LayerShape, TaskType};
use serde::{Deserialize, Serialize};

/// A DNN model as a sequence of layer shapes.
///
/// Models are purely descriptive — there are no tensors or parameters here,
/// just the shapes the cost model and mapper need. Construct models via the
/// [`zoo`](crate::zoo) module or [`Model::new`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Model {
    name: String,
    task: TaskType,
    layers: Vec<LayerShape>,
}

impl Model {
    /// Creates a model from a name, task category and layer list.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty — an empty model cannot produce jobs.
    pub fn new(name: impl Into<String>, task: TaskType, layers: Vec<LayerShape>) -> Self {
        assert!(!layers.is_empty(), "a model must have at least one layer");
        Model { name: name.into(), task, layers }
    }

    /// The model's human-readable name (e.g. `"ResNet50"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task category this model belongs to.
    pub fn task(&self) -> TaskType {
        self.task
    }

    /// All layers, in execution order.
    pub fn layers(&self) -> &[LayerShape] {
        &self.layers
    }

    /// Layers that actually execute on the accelerator (embedding lookups are
    /// kept on the host, per the paper).
    pub fn accelerator_layers(&self) -> impl Iterator<Item = &LayerShape> {
        self.layers.iter().filter(|l| l.runs_on_accelerator())
    }

    /// Total MACs for one sample across all accelerator layers.
    #[cfg(test)]
    pub(crate) fn total_macs(&self) -> u64 {
        self.accelerator_layers().map(|l| l.macs()).sum()
    }

    /// Total parameter elements across all layers (including host-side ones).
    #[cfg(test)]
    pub(crate) fn total_weight_elems(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_elems()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Model {
        Model::new(
            "Tiny",
            TaskType::Vision,
            vec![
                LayerShape::pointwise(8, 3, 8, 8),
                LayerShape::FullyConnected { out_features: 10, in_features: 8 },
            ],
        )
    }

    #[test]
    fn accessors() {
        let m = tiny();
        assert_eq!(m.name(), "Tiny");
        assert_eq!(m.task(), TaskType::Vision);
        assert_eq!(m.layers().len(), 2);
    }

    #[test]
    fn total_macs_sums_layers() {
        let m = tiny();
        let expected: u64 = m.layers().iter().map(|l| l.macs()).sum();
        assert_eq!(m.total_macs(), expected);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_model_panics() {
        let _ = Model::new("Empty", TaskType::Vision, vec![]);
    }

    #[test]
    fn accelerator_layers_skips_embeddings() {
        let m = Model::new(
            "WithEmb",
            TaskType::Recommendation,
            vec![
                LayerShape::EmbeddingLookup { lookups: 26, dim: 64 },
                LayerShape::FullyConnected { out_features: 256, in_features: 512 },
            ],
        );
        assert_eq!(m.accelerator_layers().count(), 1);
        assert_eq!(m.total_macs(), 256 * 512);
    }
}
