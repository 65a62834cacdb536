/// Per-interval snapshots of a fixed set of counters.
///
/// An `EpochSeries` is created with an epoch length (in retired
/// instructions) and a fixed list of series names; the producer then
/// pushes one row of counter *deltas* per completed epoch. The series
/// exports into the metrics document under `"epochs"`, giving
/// downstream consumers (plotting, phase detection, DL-simulator
/// training sets) a structured per-interval signal.
///
/// # Example
///
/// ```
/// use telemetry::EpochSeries;
///
/// let mut epochs = EpochSeries::new(10_000, &["cycles", "l1i_demand_misses"]);
/// epochs.push_row(&[4_000, 12]);
/// epochs.push_row(&[5_500, 90]);
/// assert_eq!(epochs.rows(), 2);
/// assert_eq!(epochs.series("l1i_demand_misses"), Some(&[12, 90][..]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochSeries {
    epoch_instructions: u64,
    names: Vec<&'static str>,
    columns: Vec<Vec<u64>>,
}

impl EpochSeries {
    /// A series snapshotting every `epoch_instructions` retired
    /// instructions, carrying one column per name.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_instructions` is zero or `names` is empty.
    pub fn new(epoch_instructions: u64, names: &[&'static str]) -> EpochSeries {
        assert!(epoch_instructions > 0, "epoch length must be positive");
        assert!(!names.is_empty(), "an epoch series needs at least one column");
        EpochSeries {
            epoch_instructions,
            names: names.to_vec(),
            columns: vec![Vec::new(); names.len()],
        }
    }

    /// The configured epoch length in retired instructions.
    pub fn epoch_instructions(&self) -> u64 {
        self.epoch_instructions
    }

    /// Completed epochs recorded so far.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Appends one epoch's counter deltas, in column order.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not have one value per column.
    pub fn push_row(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.columns.len(), "row width must match the column count");
        for (column, value) in self.columns.iter_mut().zip(row) {
            column.push(*value);
        }
    }

    /// The recorded column for `name`, if present.
    pub fn series(&self, name: &str) -> Option<&[u64]> {
        self.names.iter().position(|n| *n == name).map(|i| self.columns[i].as_slice())
    }

    /// Every column with its name, in column order.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (&'static str, &[u64])> {
        self.names.iter().copied().zip(self.columns.iter().map(Vec::as_slice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_series_round_trip() {
        let mut e = EpochSeries::new(100, &["a", "b"]);
        e.push_row(&[1, 2]);
        e.push_row(&[3, 4]);
        assert_eq!(e.rows(), 2);
        assert_eq!(e.series("a"), Some(&[1, 3][..]));
        assert_eq!(e.series("missing"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        EpochSeries::new(100, &["a"]).push_row(&[1, 2]);
    }

    #[test]
    fn json_shape() {
        let mut e = EpochSeries::new(50, &["cycles"]);
        e.push_row(&[7]);
        let mut r = crate::Registry::new();
        r.set_epochs(e);
        let json = r.to_json();
        assert!(
            json.ends_with(
                ",\"epochs\":{\"epoch_instructions\":50,\"rows\":1,\"series\":{\"cycles\":[7]}}}\n"
            ),
            "{json}"
        );
    }
}
